"""Findings → diagnostics: suppression, selection, promotion, rendering.

Trust: **advisory** — lint reporting and suppression plumbing.

This module is the bridge between the analyzer (pure AST → ``Finding``
values) and the pipeline's :class:`~repro.pipeline.diagnostics.Diagnostic`
vocabulary used by the CLI, the ``analyze`` stage, and the service's 422
payloads.

Suppression is comment-based and purely line-oriented: a source line that
contains ``// lint:ignore`` suppresses every finding reported on that line,
and ``// lint:ignore VPR001,VPR004`` suppresses only the listed checks.
The lexer strips comments before parsing, so the marker never changes the
program being analyzed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..pipeline.diagnostics import Diagnostic, SourceLocation, wrap_exception
from ..viper import ViperSyntaxError, parse_program
from .checks import ALL_CHECK_IDS, CHECKS, Finding, analyze_program

#: ``// lint:ignore`` or ``// lint:ignore VPR001, VPR004`` (case-insensitive
#: on the marker, exact on the codes).
_SUPPRESS_RE = re.compile(
    r"//\s*lint:\s*ignore\b[ \t]*(?P<codes>[A-Z0-9, \t]*)", re.IGNORECASE
)


class AnalysisError(Exception):
    """Raised by the pipeline's ``analyze`` stage when error-severity
    findings reject the program.

    Carries the full finding list so callers (the service's 422 payload,
    the CLI) can render every diagnostic, not just the summary line."""

    def __init__(self, findings: Sequence[Finding]):
        self.findings = list(findings)
        errors = [f for f in self.findings if f.severity == "error"]
        head = errors[0] if errors else self.findings[0]
        #: picked up by the diagnostics wrapper as the source location
        self.line = head.line
        extra = len(self.findings) - 1
        message = f"[{head.code}] {head.message}"
        if extra:
            message += f" (+{extra} more finding{'s' if extra > 1 else ''})"
        super().__init__(message)


@dataclass
class LintResult:
    """The outcome of linting one source text.

    ``findings`` are the post-suppression, post-selection findings;
    ``suppressed`` counts how many were dropped by ``lint:ignore`` markers;
    ``error`` is set when the program could not even be parsed or
    typechecked (in which case ``findings`` is empty and ``exit_code`` is
    2).  ``exit_code`` follows the CLI contract: 0 = clean, 1 = findings,
    2 = unanalyzable.
    """

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    error: Optional[Diagnostic] = None

    @property
    def exit_code(self) -> int:
        if self.error is not None:
            return 2
        return 1 if self.findings else 0

    def to_dict(self) -> dict:
        payload: dict = {
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": self.suppressed,
            "exit_code": self.exit_code,
        }
        if self.error is not None:
            payload["error"] = self.error.to_dict()
        return payload


def suppressed_lines(source: str) -> Dict[int, Optional[Set[str]]]:
    """Map 1-based line numbers to their suppression: ``None`` means the
    whole line is suppressed, a set restricts it to those check IDs."""
    result: Dict[int, Optional[Set[str]]] = {}
    if _SUPPRESS_RE.search(source) is None:
        return result  # one scan of the text; most programs have no marker
    for number, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        codes = {
            code.strip().upper()
            for code in match.group("codes").split(",")
            if code.strip()
        }
        result[number] = codes or None
    return result


def apply_suppressions(
    findings: Sequence[Finding], source: str
) -> Tuple[List[Finding], int]:
    """Drop findings whose line carries a matching ``lint:ignore`` marker.

    Returns ``(kept, suppressed_count)``.  Findings without a line (e.g.
    program-wide ones that lost their position) are never suppressed."""
    markers = suppressed_lines(source)
    if not markers:
        return list(findings), 0
    kept: List[Finding] = []
    dropped = 0
    for finding in findings:
        codes = markers.get(finding.line) if finding.line is not None else None
        if finding.line in markers and (codes is None or finding.code in codes):
            dropped += 1
            continue
        kept.append(finding)
    return kept, dropped


def select_findings(
    findings: Sequence[Finding],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Keep only the selected check IDs, then drop the ignored ones.

    Unknown IDs raise ``ValueError`` so typos fail loudly instead of
    silently selecting nothing."""
    chosen = _normalize_codes(select) if select is not None else None
    dropped = _normalize_codes(ignore) if ignore is not None else frozenset()
    result = []
    for finding in findings:
        if chosen is not None and finding.code not in chosen:
            continue
        if finding.code in dropped:
            continue
        result.append(finding)
    return result


def _normalize_codes(codes: Iterable[str]) -> frozenset:
    normalized = frozenset(code.strip().upper() for code in codes if code.strip())
    unknown = normalized - set(ALL_CHECK_IDS)
    if unknown:
        raise ValueError(
            f"unknown check ID(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(ALL_CHECK_IDS)})"
        )
    return normalized


def promote_warnings(findings: Sequence[Finding]) -> List[Finding]:
    """Turn every warning into an error (the ``--error-on-warn`` switch)."""
    return [
        Finding(
            code=f.code,
            message=f.message,
            severity="error",
            method=f.method,
            line=f.line,
            subject=f.subject,
        )
        if f.severity != "error"
        else f
        for f in findings
    ]


def findings_to_diagnostics(findings: Sequence[Finding]) -> List[Diagnostic]:
    """Map analyzer findings onto the pipeline's diagnostic vocabulary."""
    diagnostics: List[Diagnostic] = []
    for finding in findings:
        info = CHECKS.get(finding.code)
        diagnostics.append(
            Diagnostic(
                stage="analyze",
                message=finding.message,
                location=(
                    SourceLocation(finding.line)
                    if finding.line is not None
                    else None
                ),
                hint=info.hint if info is not None else "",
                severity=finding.severity,
                code=finding.code,
            )
        )
    return diagnostics


def lint_source(
    source: str,
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    error_on_warn: bool = False,
) -> LintResult:
    """Parse and analyze one source text.

    The analyzer runs on the *pre-desugaring* AST (so ``while``/``old()``/
    ``new`` are still visible and findings cite the source the programmer
    wrote); it deliberately does not typecheck — the type checker only
    accepts the desugared core, and the analyzer is total on anything that
    parses.  Parse errors become a ``LintResult`` with ``error`` set (exit
    code 2) rather than an exception, so the CLI and the service can treat
    "unanalyzable" uniformly.  Check selection errors (unknown IDs) still
    raise ``ValueError`` — those are caller bugs, not program defects."""
    try:
        program = parse_program(source)
    except (ViperSyntaxError, RecursionError) as error:
        return LintResult(error=wrap_exception("parse", error).diagnostic)
    try:
        findings = analyze_program(program)
    except RecursionError as error:
        return LintResult(error=wrap_exception("analyze", error).diagnostic)
    findings, suppressed = apply_suppressions(findings, source)
    findings = select_findings(findings, select, ignore)
    if error_on_warn:
        findings = promote_warnings(findings)
    return LintResult(findings=findings, suppressed=suppressed)
