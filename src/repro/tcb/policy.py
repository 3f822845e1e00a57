"""The machine-readable trust policy: module patterns → trust status.

Trust: **advisory** — the policy *describes* the boundary for the checker
and the docs; the boundary's soundness rests on the kernel re-judging
every artifact, not on this table being right.

Three statuses partition the tree (docs/TRUSTED_BASE.md):

``trusted``
    Inside the TCB: must be correct for the final theorem to mean
    anything.  The TB checks constrain these modules — they may only
    import other trusted modules (TB001), may never reach the caching /
    disk-tier / unit-routing machinery (TB002) or any advisory module
    (TB003), and may not contain dynamic code loading (TB004) or
    nondeterminism sources (TB005).
``untrusted-but-checked``
    May be arbitrarily wrong; the trusted reparse+check path re-judges
    whatever it produces, so the worst failure is a spurious rejection.
``advisory``
    Observability, measurement, and defence-in-depth tooling whose
    output is never consulted by any verdict path.

A pattern is either an exact module name (``repro.viper.parser``) or a
subtree wildcard (``repro.viper.*`` — strict descendants only, not the
package module itself).  The most specific match wins: exact beats
wildcard, deeper wildcard beats shallower.  Docstring ``Trust:`` lines
may spell ``untrusted`` for ``untrusted-but-checked`` (the prose reads
better); :func:`normalize_status` folds the alias.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

#: The canonical statuses, in decreasing order of obligation.
TRUST_STATUSES: Tuple[str, ...] = ("trusted", "untrusted-but-checked", "advisory")

#: Docstring spellings folded onto canonical statuses.
_STATUS_ALIASES: Dict[str, str] = {
    "trusted": "trusted",
    "untrusted-but-checked": "untrusted-but-checked",
    "untrusted": "untrusted-but-checked",
    "advisory": "advisory",
}

#: ``Trust: **<status>**`` (the status may carry a trailing qualifier word
#: such as "infrastructure" or "front door" after the closing ``**``).
_TRUST_LINE_RE = re.compile(
    r"^Trust:\s*\*\*(?P<status>[a-z-]+)\*\*", re.MULTILINE
)


def normalize_status(status: str) -> Optional[str]:
    """Fold docstring spellings onto the canonical status, else ``None``."""
    return _STATUS_ALIASES.get(status.strip().lower())


def parse_trust_line(docstring: Optional[str]) -> Optional[str]:
    """Extract the raw status token from a module docstring, if any.

    Returns the token as written (``untrusted`` stays ``untrusted``);
    callers normalize.  ``None`` means no ``Trust:`` line at all."""
    if not docstring:
        return None
    match = _TRUST_LINE_RE.search(docstring)
    return match.group("status") if match else None


@dataclass(frozen=True)
class PolicyRule:
    """One pattern → status entry."""

    pattern: str
    status: str

    def __post_init__(self) -> None:
        if self.status not in TRUST_STATUSES:
            raise ValueError(
                f"bad status {self.status!r} for {self.pattern!r} "
                f"(expected one of {TRUST_STATUSES})"
            )

    @property
    def is_wildcard(self) -> bool:
        return self.pattern.endswith(".*")

    @property
    def specificity(self) -> Tuple[int, int]:
        """Exact (1) beats wildcard (0); deeper beats shallower."""
        base = self.pattern[:-2] if self.is_wildcard else self.pattern
        return (0 if self.is_wildcard else 1, base.count(".") + 1)

    def matches(self, module: str) -> bool:
        if self.is_wildcard:
            return module.startswith(self.pattern[:-2] + ".")
        return module == self.pattern


@dataclass(frozen=True)
class TrustPolicy:
    """An ordered rule set with most-specific-wins lookup.

    ``forbidden_for_trusted`` names the caching / disk-tier /
    unit-routing modules that no trusted module may reach even
    transitively (TB002): reaching them would quietly move the cache
    into the TCB, which is exactly the drift this checker exists to
    stop.  ``nondet_modules`` are the stdlib nondeterminism sources
    banned from trusted modules (TB005)."""

    rules: Tuple[PolicyRule, ...]
    forbidden_for_trusted: FrozenSet[str] = frozenset()
    nondet_modules: FrozenSet[str] = frozenset({"random"})

    def status_of(self, module: str) -> Optional[str]:
        """The most specific matching rule's status, or ``None``."""
        best: Optional[PolicyRule] = None
        for rule in self.rules:
            if not rule.matches(module):
                continue
            if best is None or rule.specificity > best.specificity:
                best = rule
        return best.status if best else None

    def modules_with_status(
        self, modules: Iterable[str], status: str
    ) -> List[str]:
        return sorted(m for m in modules if self.status_of(m) == status)

    def unmatched(self, modules: Iterable[str]) -> List[str]:
        """Modules no rule covers — policy drift, surfaced by TB007."""
        return sorted(m for m in modules if self.status_of(m) is None)

    def dead_patterns(self, modules: Iterable[str]) -> List[str]:
        """Rules matching no module — stale policy entries."""
        modules = list(modules)
        return sorted(
            rule.pattern
            for rule in self.rules
            if not any(rule.matches(m) for m in modules)
        )


def _rules(*pairs: Tuple[str, str]) -> Tuple[PolicyRule, ...]:
    return tuple(PolicyRule(pattern, status) for pattern, status in pairs)


#: The reproduction's own trust boundary, mirroring docs/TRUSTED_BASE.md.
#:
#: The trusted set is the TCB inventory: the Viper and Boogie substrates
#: that *define* the obligation, the certificate parser, the proof
#: kernel, the theorem assembler, the bounded back-end, and the two
#: frontend modules whose *definitions* (not data) the kernel consumes —
#: translation records and the background theory.  Re-export hubs
#: (package ``__init__`` modules) are untrusted-but-checked because they
#: pull in untrusted siblings; trusted code imports its dependencies
#: directly.
DEFAULT_POLICY = TrustPolicy(
    rules=_rules(
        # -- top level ----------------------------------------------------
        ("repro", "untrusted-but-checked"),
        ("repro.cli", "untrusted-but-checked"),
        ("repro.choice", "trusted"),
        # -- Viper substrate ----------------------------------------------
        ("repro.viper", "untrusted-but-checked"),
        ("repro.viper.*", "trusted"),
        ("repro.viper.pretty", "untrusted-but-checked"),
        # -- Boogie substrate ---------------------------------------------
        ("repro.boogie", "untrusted-but-checked"),
        ("repro.boogie.*", "trusted"),
        ("repro.boogie.pretty", "untrusted-but-checked"),
        # -- certification ------------------------------------------------
        ("repro.certification", "untrusted-but-checked"),
        ("repro.certification.*", "trusted"),
        ("repro.certification.tactic", "untrusted-but-checked"),
        ("repro.certification.oracle", "advisory"),
        ("repro.certification.simulation", "advisory"),
        # -- frontend (the translation being validated) --------------------
        ("repro.frontend", "untrusted-but-checked"),
        ("repro.frontend.*", "untrusted-but-checked"),
        ("repro.frontend.records", "trusted"),
        ("repro.frontend.background", "trusted"),
        # -- pipeline -----------------------------------------------------
        ("repro.pipeline", "untrusted-but-checked"),
        ("repro.pipeline.*", "untrusted-but-checked"),
        ("repro.pipeline.diagnostics", "advisory"),
        ("repro.pipeline.instrumentation", "advisory"),
        # -- serving ------------------------------------------------------
        ("repro.service", "untrusted-but-checked"),
        ("repro.service.*", "untrusted-but-checked"),
        ("repro.service.admission", "advisory"),
        ("repro.service.client", "advisory"),
        ("repro.service.loadgen", "advisory"),
        ("repro.service.metrics", "advisory"),
        # -- observability / analysis / defence-in-depth -------------------
        ("repro.trace", "advisory"),
        ("repro.trace.*", "advisory"),
        ("repro.perf", "advisory"),
        ("repro.perf.*", "advisory"),
        ("repro.analysis", "advisory"),
        ("repro.analysis.*", "advisory"),
        ("repro.fuzz", "advisory"),
        ("repro.fuzz.*", "advisory"),
        ("repro.harness", "advisory"),
        ("repro.harness.*", "advisory"),
        ("repro.tcb", "advisory"),
        ("repro.tcb.*", "advisory"),
    ),
    forbidden_for_trusted=frozenset({
        "repro.pipeline.cache",
        "repro.service.diskcache",
        "repro.pipeline.units",
    }),
)
