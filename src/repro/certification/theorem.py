"""Final theorem assembly (Sec. 4.5, Fig. 10).

Trust: **trusted** — composes per-method results into the final soundness
statement (Fig. 10).

Combines the per-method relational proofs into the program-level soundness
statement: *if every Boogie procedure of the translated program is correct,
then every Viper method of the input program is correct*.

Three ingredients are checked:

1. **Background validity** — the Boogie program type-checks (including the
   syntactic guard that axioms mention no global variables), and the
   standard interpretation of Sec. 4.4 satisfies every emitted axiom (a
   background schema by a lemma proved once, others by bounded AxiomSat).
2. **Per-method simulation** — each method certificate checks against the
   kernel (:class:`~repro.certification.checker.ProofChecker`).
3. **Dependency closure** — every non-local dependency (a callee whose
   well-definedness checks were omitted at a call site, Sec. 4.2) is a
   method of the program, whose C1 (spec well-formedness) section is part
   of its own checked certificate.  This is exactly the composition step of
   Fig. 10: correctness of all procedures gives all C1s, which discharge
   the hypotheses of all C2s.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..boogie.interp import check_axioms_bounded
from ..boogie.typechecker import BoogieTypeError, check_boogie_program
from ..frontend.background import BACKGROUND_AXIOMS, constant_valuation, standard_interpretation
from ..frontend.translator import TranslationResult  # tcb: allow[TB001] type-only: the theorem's API names the untrusted translator's result dataclass; no translator code runs while checking
from .checker import CheckReport, ProofChecker
from .prooftree import MethodCertificate, ProgramCertificate


@dataclass
class TheoremReport:
    """The outcome of checking a program certificate."""

    ok: bool
    method_reports: Dict[str, CheckReport] = field(default_factory=dict)
    axioms_ok: bool = False
    boogie_typechecks: bool = False
    unresolved_dependencies: Tuple[str, ...] = ()
    error: str = ""
    check_seconds: float = 0.0

    def statement(self) -> str:
        """A rendering of the established theorem (or the failure)."""
        if not self.ok:
            return f"CERTIFICATE REJECTED: {self.error}"
        methods = ", ".join(sorted(self.method_reports))
        return (
            "THEOREM (front-end soundness). If every procedure of the "
            "translated Boogie program is correct (w.r.t. any well-formed "
            "interpretation satisfying its axioms, witnessed here by the "
            "standard partial-map interpretation), then every method of "
            f"the input Viper program is correct: {methods}."
        )


def check_program_certificate(
    result: TranslationResult,
    certificate: ProgramCertificate,
) -> TheoremReport:
    """Check a full program certificate and assemble the final theorem."""
    start = time.perf_counter()
    report = TheoremReport(ok=False)
    report.error = _rejection(result, certificate, report)
    report.ok = not report.error
    report.check_seconds = time.perf_counter() - start
    return report


def _rejection(
    result: TranslationResult, certificate: ProgramCertificate, report: TheoremReport
) -> str:
    """Run the three checks into ``report``; the first failure's reason, or ""."""
    # 1. Background validity.
    try:
        check_boogie_program(result.boogie_program)
        report.boogie_typechecks = True
    except BoogieTypeError as error:
        return f"Boogie program ill-typed: {error}"
    # The trusted schemas (never ``result.background``) hold for every field
    # profile (docs/TRUSTED_BASE.md, "Background lemma"); evaluate the rest.
    program, schemas = result.boogie_program, [a.expr for a in BACKGROUND_AXIOMS]
    unproved = tuple(a for a in program.axioms if a.expr not in schemas)
    interp = standard_interpretation(result.type_info.field_types)
    consts = constant_valuation(result.background)
    axiom_result = check_axioms_bounded(replace(program, axioms=unproved), interp, consts)
    report.axioms_ok = axiom_result.ok
    if not axiom_result.ok:
        return f"axiom not satisfied by the model: {axiom_result.detail}"
    # 2. Per-method simulation proofs.
    checker = ProofChecker(
        result.viper_program, result.type_info, result.boogie_program
    )
    certified_methods = set()
    all_dependencies: Dict[str, Tuple[str, ...]] = {}
    for cert in certificate.methods:
        method_report = checker.check_method_certificate(cert)
        report.method_reports[cert.method] = method_report
        if not method_report.ok:
            return f"method {cert.method!r} failed certification: {method_report.error}"
        certified_methods.add(cert.method)
        all_dependencies[cert.method] = method_report.dependencies
    # Every program method needs a certificate (the theorem quantifies over
    # the whole program).
    missing = [
        m.name for m in result.viper_program.methods if m.name not in certified_methods
    ]
    if missing:
        return f"methods without certificates: {missing}"
    # 3. Dependency closure (Fig. 10): each dependency must be a certified
    # method — its C1 section provides the spec well-formedness fact.
    unresolved: List[str] = []
    for method, dependencies in all_dependencies.items():
        for dep in dependencies:
            if dep not in certified_methods:
                unresolved.append(f"{method} -> {dep}")
    if unresolved:
        report.unresolved_dependencies = tuple(unresolved)
        return f"unresolved non-local dependencies: {unresolved}"
    return ""
