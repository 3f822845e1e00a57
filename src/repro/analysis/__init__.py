"""Static analysis over the (pre-desugaring) Viper AST.

Trust: **advisory** — lint findings gate review, never a verdict.

A lint subsystem in the spirit of the paper's "catch problems before the
expensive trusted machinery" philosophy: many programs that will
inevitably fail certification — use of unassigned locals, statements after
``assert false``, exhaling permission that was never inhaled — are
statically detectable on the Viper AST in microseconds, long before the
translator, the proof-generating tactic, or the trusted kernel run.

The subsystem is three layers:

* :mod:`repro.analysis.cfg` — per-method control-flow graphs over the
  statement forms (including the extension statements ``while`` and
  ``new`` *before* desugaring, so findings cite the source the programmer
  wrote), plus a generic forward-dataflow engine (worklist, lattice join,
  widening) and a backward liveness query;
* :mod:`repro.analysis.checks` — the catalog of checks with stable IDs
  (``VPR001`` …), each producing :class:`~repro.analysis.checks.Finding`
  values;
* :mod:`repro.analysis.report` — findings → pipeline
  :class:`~repro.pipeline.diagnostics.Diagnostic` values, comment-based
  suppression, check selection, and warning promotion.

**Trust argument** (see ``docs/ANALYSIS.md``): the analyzer is advisory.
It is consulted by the CLI, the pipeline's optional ``analyze`` stage, and
the service's admission fast path — never by the trusted reparse+check
path.  A missed finding costs only wasted work downstream; a wrong finding
can reject a certifiable program at admission, which is why every check
only reports *provable* facts and the fuzz generator doubles as a
zero-false-positive oracle.
"""

from .cfg import CFG, CFGNode, ForwardAnalysis, build_cfg, live_after, run_forward
from .checks import ALL_CHECK_IDS, CHECKS, CheckInfo, Finding, analyze_program
from .report import (
    AnalysisError,
    LintResult,
    apply_suppressions,
    findings_to_diagnostics,
    lint_source,
    promote_warnings,
    select_findings,
    suppressed_lines,
)

__all__ = [
    "CFG",
    "CFGNode",
    "ForwardAnalysis",
    "build_cfg",
    "live_after",
    "run_forward",
    "ALL_CHECK_IDS",
    "CHECKS",
    "CheckInfo",
    "Finding",
    "analyze_program",
    "AnalysisError",
    "LintResult",
    "apply_suppressions",
    "findings_to_diagnostics",
    "lint_source",
    "promote_warnings",
    "select_findings",
    "suppressed_lines",
]
