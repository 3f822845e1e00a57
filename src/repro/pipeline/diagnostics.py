"""Structured diagnostics for the staged pipeline.

Trust: **advisory** — diagnostics shape error *messages*, never
verdicts; a wrong hint misleads a reader, not the kernel.

The substrate layers raise their own exception types (``ViperSyntaxError``,
``ViperTypeError``, ``TranslationError``, ``CertificateParseError``, …), and
library callers that use those layers directly keep seeing them unchanged.
When the *pipeline* drives the flow on behalf of a user-facing entry point
(the CLI, the harness), those bare exceptions are wrapped into a
:class:`PipelineError` carrying

* the **stage** that failed (``parse``, ``typecheck``, ``translate``, …),
* the **source location**, when the underlying error knows one,
* a **recovery hint** telling the user what to do about it.

The wrapped original exception is preserved as ``__cause__`` (and as
``.diagnostic.cause``), so nothing is lost — only organised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Tuple, Type


@dataclass(frozen=True)
class SourceLocation:
    """A 1-based position in the Viper source text."""

    line: int
    column: int = 0

    def __str__(self) -> str:
        if self.column:
            return f"{self.line}:{self.column}"
        return str(self.line)


@dataclass
class Diagnostic:
    """One structured problem report emitted by a pipeline stage.

    ``code`` is a stable machine-readable identifier (e.g. the analyzer's
    ``VPR00x`` check IDs); empty for diagnostics that predate codes, so all
    existing constructor calls keep working unchanged.
    """

    stage: str
    message: str
    location: Optional[SourceLocation] = None
    hint: str = ""
    severity: str = "error"
    cause: Optional[BaseException] = field(default=None, repr=False)
    code: str = ""

    def render(self) -> str:
        """A human-readable, single-block rendering for the CLI."""
        where = f" at {self.location}" if self.location else ""
        code = f" {self.code}" if self.code else ""
        lines = [f"{self.severity}[{self.stage}]{code}{where}: {self.message}"]
        if self.hint:
            lines.append(f"  hint: {self.hint}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready rendering (used by ``repro lint --json`` and the
        service's 422 payloads)."""
        payload = {
            "stage": self.stage,
            "severity": self.severity,
            "message": self.message,
        }
        if self.code:
            payload["code"] = self.code
        if self.location is not None:
            payload["line"] = self.location.line
            if self.location.column:
                payload["column"] = self.location.column
        if self.hint:
            payload["hint"] = self.hint
        return payload


class PipelineError(Exception):
    """A stage of the pipeline failed.

    Subclasses exist per failure category so callers can discriminate
    without string matching; all of them carry a :class:`Diagnostic`.
    """

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic

    @property
    def stage(self) -> str:
        return self.diagnostic.stage

    @property
    def location(self) -> Optional[SourceLocation]:
        return self.diagnostic.location

    @property
    def hint(self) -> str:
        return self.diagnostic.hint


class ParseError(PipelineError):
    """The Viper source (or a serialised artifact) did not parse."""


class TypecheckError(PipelineError):
    """The Viper program failed type or scope checking."""


class TranslateError(PipelineError):
    """The translation rejected the program (outside the supported subset)."""


class CertificationError(PipelineError):
    """Certificate generation or checking failed structurally."""


#: Recovery hints per pipeline stage — what a user should try next.
_STAGE_HINTS = {
    "parse": "fix the syntax near the reported location; see the supported "
             "grammar in README.md (Scope)",
    "desugar": "the loop/old/new desugaring rejected the program; check that "
               "loop invariants and old() expressions are well-formed",
    "typecheck": "declare every variable/field with a matching type; run "
                 "`repro translate FILE` for the full type report",
    "analyze": "the static analyzer found likely defects; run `repro lint "
               "FILE` for the full report, or pass --no-analyze to skip",
    "translate": "the program uses a construct outside the supported Viper "
                 "subset (see README.md, Scope)",
    "generate": "certificate generation failed — this indicates a translator/"
                "tactic bug; re-run with --oracle to localise it",
    "render": "the certificate could not be serialised; please report this",
    "reparse": "the certificate text is corrupt; regenerate it with "
               "`repro certify FILE -o FILE.cert`",
    "check": "the kernel rejected the certificate; the translation is not "
             "validated for this program",
}

#: Exception-class → PipelineError subclass, by stage category.
_STAGE_ERROR_CLASS = {
    "parse": ParseError,
    "desugar": TranslateError,
    "typecheck": TypecheckError,
    "analyze": TypecheckError,
    "translate": TranslateError,
    "generate": CertificationError,
    "render": CertificationError,
    "reparse": ParseError,
    "check": CertificationError,
}

_LINE_COL_RE = re.compile(r"^(\d+):(\d+):")

#: The stable code, message and hint for an input too deeply nested for
#: the recursive AST walkers (a ``RecursionError`` in any stage).
_DEPTH_LIMIT_CODE = "LIM001"
_DEPTH_LIMIT_MESSAGE = "program nesting exceeds the supported depth"
_DEPTH_LIMIT_HINT = (
    "split long expressions (e.g. a sum of hundreds of terms) into "
    "intermediate assignments, and reduce parenthesis nesting"
)


def _location_of(error: BaseException) -> Optional[SourceLocation]:
    """Extract a source location from a substrate exception, if it has one."""
    line = getattr(error, "line", None)
    column = getattr(error, "column", None)
    if isinstance(line, int):
        return SourceLocation(line, column if isinstance(column, int) else 0)
    match = _LINE_COL_RE.match(str(error))
    if match:
        return SourceLocation(int(match.group(1)), int(match.group(2)))
    return None


def wrap_exception(stage: str, error: BaseException) -> PipelineError:
    """Wrap a substrate exception into the matching :class:`PipelineError`.

    The resulting error carries the stage name, the extracted source
    location (when available), and the stage's recovery hint; the original
    exception is preserved for ``raise ... from``.
    """
    error_class: Type[PipelineError] = _STAGE_ERROR_CLASS.get(stage, PipelineError)
    if isinstance(error, RecursionError):
        # CPython's message names no location; report the fixed one.
        return error_class(Diagnostic(
            stage=stage, message=_DEPTH_LIMIT_MESSAGE, hint=_DEPTH_LIMIT_HINT,
            cause=error, code=_DEPTH_LIMIT_CODE,
        ))
    code = ""
    findings = getattr(error, "findings", None)
    if findings:
        errors = [f for f in findings if getattr(f, "severity", "") == "error"]
        head = errors[0] if errors else findings[0]
        code = getattr(head, "code", "") or ""
    diagnostic = Diagnostic(
        stage=stage,
        message=str(error) or error.__class__.__name__,
        location=_location_of(error),
        hint=_STAGE_HINTS.get(stage, ""),
        cause=error,
        code=code,
    )
    return error_class(diagnostic)


def wrappable_exceptions() -> Tuple[Type[BaseException], ...]:
    """The substrate exception types the pipeline knows how to wrap.

    Deliberately excludes programming errors (``AttributeError`` & co.),
    which should surface as tracebacks, not diagnostics.  ``RecursionError``
    is included: it means the input is nested deeper than the recursive
    walkers support, which is a property of the input, not a bug.
    """
    from ..analysis.report import AnalysisError
    from ..boogie import BoogieSyntaxError
    from ..certification import CertificateParseError, CheckError, ProofGenError
    from ..certification.exprcorr import CorrespondenceError
    from ..frontend import TranslationError
    from ..viper import OldExprError, ViperSyntaxError, ViperTypeError

    return (
        ViperSyntaxError,
        BoogieSyntaxError,
        ViperTypeError,
        OldExprError,
        TranslationError,
        AnalysisError,
        ProofGenError,
        CertificateParseError,
        CheckError,
        CorrespondenceError,
        ValueError,
        RecursionError,
    )
