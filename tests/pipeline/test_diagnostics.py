"""Structured diagnostics: stage attribution, locations, recovery hints."""

import pytest

from repro.pipeline import (
    Diagnostic,
    ParseError,
    PipelineError,
    run_pipeline,
    SourceLocation,
    TranslateError,
    TypecheckError,
    wrap_exception,
)
from repro.viper import ViperSyntaxError, ViperTypeError

GOOD = """
field f: Int
method m(x: Ref) requires acc(x.f, write) ensures acc(x.f, write)
{ x.f := 1 }
"""

SYNTAX_ERROR = "field f: Int\nmethod m( {"
TYPE_ERROR = """
field f: Int
method m(x: Ref) requires acc(x.f, write) ensures acc(x.f, write)
{ undeclared := 1 }
"""


class TestWrappedMode:
    def test_parse_failure_carries_stage_location_and_hint(self):
        with pytest.raises(ParseError) as excinfo:
            run_pipeline(SYNTAX_ERROR, wrap_errors=True)
        error = excinfo.value
        assert error.stage == "parse"
        assert error.location is not None and error.location.line == 2
        assert error.hint
        assert isinstance(error.diagnostic, Diagnostic)
        assert isinstance(error.__cause__, ViperSyntaxError)

    def test_typecheck_failure_is_a_typecheck_error(self):
        with pytest.raises(TypecheckError) as excinfo:
            run_pipeline(TYPE_ERROR, wrap_errors=True)
        assert excinfo.value.stage == "typecheck"
        assert isinstance(excinfo.value.__cause__, ViperTypeError)

    def test_all_pipeline_errors_share_the_base_class(self):
        with pytest.raises(PipelineError):
            run_pipeline(SYNTAX_ERROR, wrap_errors=True)

    def test_good_program_raises_nothing(self):
        assert run_pipeline(GOOD, wrap_errors=True).report.ok


class TestPassthroughMode:
    """Library callers keep seeing the substrate exception types."""

    def test_syntax_error_passes_through(self):
        import repro

        with pytest.raises(ViperSyntaxError):
            repro.translate_source(SYNTAX_ERROR)

    def test_type_error_passes_through(self):
        import repro

        with pytest.raises(ViperTypeError):
            repro.certify_source(TYPE_ERROR)


class TestDiagnosticRendering:
    def test_render_includes_stage_location_and_hint(self):
        diagnostic = Diagnostic(
            stage="parse",
            message="unexpected token",
            location=SourceLocation(3, 7),
            hint="fix the syntax",
        )
        rendered = diagnostic.render()
        assert "error[parse] at 3:7: unexpected token" in rendered
        assert "hint: fix the syntax" in rendered

    def test_location_str_without_column(self):
        assert str(SourceLocation(12)) == "12"
        assert str(SourceLocation(12, 4)) == "12:4"

    def test_wrap_exception_extracts_line_col_from_message(self):
        error = wrap_exception("typecheck", ViperTypeError("5:9: bad type"))
        assert isinstance(error, TypecheckError)
        assert error.location == SourceLocation(5, 9)

    def test_wrap_exception_defaults_for_unknown_stage(self):
        error = wrap_exception("mystery", ValueError("odd"))
        assert type(error) is PipelineError
        assert error.stage == "mystery"

    def test_recursion_error_becomes_the_fixed_depth_diagnostic(self):
        error = wrap_exception("units", RecursionError("maximum recursion depth"))
        assert error.stage == "units"
        assert error.diagnostic.code == "LIM001"
        assert "recursion" not in error.diagnostic.message
        assert error.hint and error.location is None

    def test_translate_error_category(self):
        from repro.frontend import TranslationError

        error = wrap_exception("translate", TranslationError("unsupported"))
        assert isinstance(error, TranslateError)
        assert "subset" in error.hint
