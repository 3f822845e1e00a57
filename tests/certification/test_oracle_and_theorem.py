"""Tests for the semantic oracle and final-theorem assembly (Sec. 4.5)."""

import random
from dataclasses import replace

import pytest

from repro.boogie.ast import AxiomDecl
from repro.certification import certify_translation, check_program_certificate
from repro.certification.oracle import (
    validate_method_semantically,
    validate_program_semantically,
)
from repro.certification.relations import boogie_state_for, rel_holds, SimRel
from repro.frontend import translate_program, TranslationOptions
from repro.frontend.background import constant_valuation
from repro.fuzz.mutators import axiom_perturbations

from tests.helpers import parsed

PROGRAM = """
field f: Int

method ok(x: Ref) returns (y: Int)
  requires acc(x.f, write)
  ensures acc(x.f, write) && y == x.f
{
  x.f := 2
  y := x.f
}

method wrong_post(x: Ref)
  requires acc(x.f, write)
  ensures acc(x.f, write) && x.f == 0
{
  x.f := 1
}

method wd_failure(x: Ref)
  requires true
  ensures true
{
  assert x.f >= 0
}

method missing_perm(x: Ref)
  requires acc(x.f, 1/2)
  ensures acc(x.f, 1/2)
{
  x.f := 1
}
"""


def translated():
    program, info = parsed(PROGRAM)
    return translate_program(program, info)


class TestOracle:
    def test_failure_direction_holds_for_all_methods(self):
        result = translated()
        verdicts = validate_program_semantically(result, max_states_per_method=12)
        for verdict in verdicts:
            assert verdict.ok, f"{verdict.method}: {verdict.detail}"

    def test_oracle_sees_viper_failures_for_wrong_methods(self):
        result = translated()
        verdict = validate_method_semantically(result, "wrong_post", max_states=12)
        assert verdict.ok
        assert verdict.viper_failures > 0

    def test_oracle_catches_a_broken_translation(self):
        """Drop the permission check of the field write: the translation is
        now unsound and the oracle must detect the missing Boogie failure."""
        from dataclasses import replace

        from repro.boogie.ast import Assume, BAssert, BIf, Procedure, StmtBlock, TRUE

        result = translated()

        def weaken(stmt):
            blocks = []
            for block in stmt:
                cmds = tuple(
                    Assume(TRUE) if isinstance(c, BAssert) else c for c in block.cmds
                )
                ifopt = block.ifopt
                if ifopt is not None:
                    ifopt = BIf(ifopt.cond, weaken(ifopt.then), weaken(ifopt.otherwise))
                blocks.append(StmtBlock(cmds, ifopt))
            return tuple(blocks)

        proc = result.boogie_program.procedure("m_missing_perm")
        broken = Procedure(proc.name, proc.locals, weaken(proc.body))
        procedures = tuple(
            broken if p.name == proc.name else p
            for p in result.boogie_program.procedures
        )
        bad_result = replace(
            result, boogie_program=replace(result.boogie_program, procedures=procedures)
        )
        verdict = validate_method_semantically(bad_result, "missing_perm", max_states=12)
        assert not verdict.ok

    def test_abstract_method_is_trivially_fine(self):
        program, info = parsed(
            "field f: Int\nmethod a(x: Ref) requires acc(x.f, 1/2) ensures acc(x.f, 1/2)"
        )
        result = translate_program(program, info)
        verdict = validate_method_semantically(result, "a")
        assert verdict.ok


class TestRelations:
    def test_canonical_boogie_state_is_related(self):
        from repro.viper.state import zero_mask_state
        from repro.viper.values import VInt, VRef

        result = translated()
        record = result.methods["ok"].record
        consts = constant_valuation(result.background)
        state = zero_mask_state(
            {"x": VRef(1), "y": VInt(0)}, result.type_info.field_types
        )
        boogie_state = boogie_state_for(state, record, consts)
        assert rel_holds(
            SimRel(record), state, state, boogie_state, result.type_info.field_types
        )

    def test_relation_rejects_mismatched_store(self):
        from repro.viper.state import zero_mask_state
        from repro.viper.values import VInt, VRef
        from repro.boogie.values import BVInt

        result = translated()
        record = result.methods["ok"].record
        consts = constant_valuation(result.background)
        state = zero_mask_state(
            {"x": VRef(1), "y": VInt(0)}, result.type_info.field_types
        )
        boogie_state = boogie_state_for(state, record, consts).set("v_y", BVInt(9))
        assert not rel_holds(
            SimRel(record), state, state, boogie_state, result.type_info.field_types
        )

    def test_relation_requires_consistent_masks(self):
        from fractions import Fraction

        from repro.viper.state import ViperState
        from repro.viper.values import VRef

        result = translated()
        record = result.methods["ok"].record
        consts = constant_valuation(result.background)
        state = ViperState(
            store={"x": VRef(1)},
            mask={(1, "f"): Fraction(3, 2)},
            field_types=result.type_info.field_types,
        )
        boogie_state = boogie_state_for(state, record, consts)
        assert not rel_holds(
            SimRel(record), state, state, boogie_state, result.type_info.field_types
        )


class TestFinalTheorem:
    def test_theorem_statement_names_all_methods(self):
        result = translated()
        _cert, report = certify_translation(result)
        assert report.ok
        statement = report.statement()
        for name in ("ok", "wrong_post", "wd_failure", "missing_perm"):
            assert name in statement

    def test_rejected_certificate_statement(self):
        from repro.certification.theorem import TheoremReport

        report = TheoremReport(ok=False, error="boom")
        assert "REJECTED" in report.statement()

    def test_axiom_check_included(self):
        result = translated()
        _cert, report = certify_translation(result)
        assert report.axioms_ok
        assert report.boogie_typechecks

    def test_64_int_fields_certify_without_evaluating_an_axiom(self, monkeypatch):
        """Field count is not a CPU-exhaustion input: every axiom the
        translator emits is a recognised background schema, so the kernel
        evaluates none of them (evaluated, they cost time quadratic in the
        number of same-typed fields)."""
        from repro.certification import theorem
        from repro.pipeline import run_pipeline

        evaluated = []
        check = theorem.check_axioms_bounded

        def spy(program, interp, consts):
            evaluated.extend(program.axioms)
            return check(program, interp, consts)

        monkeypatch.setattr(theorem, "check_axioms_bounded", spy)
        fields = "".join(f"field f{i}: Int\n" for i in range(64))
        ctx = run_pipeline(
            fields + "method m(x: Ref)\n  requires acc(x.f0, write)\n"
            "  ensures acc(x.f0, write)\n{ x.f0 := 1 }\n"
        )
        assert ctx.report.ok, ctx.report.error
        assert len(ctx.translation.boogie_program.axioms) == 7
        assert evaluated == []

    def test_a_true_axiom_that_is_no_schema_is_evaluated(self, monkeypatch):
        """A consistent renaming of a schema's bound variable is true but no
        schema instance: the kernel evaluates exactly that axiom, and accepts."""
        from repro.certification import theorem

        result = translated()
        certificate, _report = certify_translation(result)
        schema = result.boogie_program.axioms[0]
        renamed = AxiomDecl(
            dict(axiom_perturbations(schema.expr, random.Random(0)))["rename-bound"],
            schema.comment,
        )
        evaluated = []
        check = theorem.check_axioms_bounded

        def spy(program, interp, consts):
            evaluated.extend(program.axioms)
            return check(program, interp, consts)

        monkeypatch.setattr(theorem, "check_axioms_bounded", spy)
        axioms = (renamed,) + result.boogie_program.axioms[1:]
        report = check_program_certificate(
            replace(result, boogie_program=replace(result.boogie_program, axioms=axioms)),
            certificate,
        )
        assert report.ok, report.error
        assert evaluated == [renamed]

    def test_the_translations_own_background_vouches_for_no_axiom(self):
        """Only the trusted ``BACKGROUND_AXIOMS`` decide which axioms skip
        evaluation: a false axiom that the (untrusted) translation also lists
        in its background theory is still evaluated, and rejected."""
        result = translated()
        certificate, report = certify_translation(result)
        assert report.ok
        schema = result.boogie_program.axioms[0]
        false = AxiomDecl(
            dict(axiom_perturbations(schema.expr, random.Random(0)))["negate-body"],
            schema.comment,
        )
        axioms = result.boogie_program.axioms + (false,)
        lying = replace(
            result,
            background=replace(result.background, axioms=axioms),
            boogie_program=replace(result.boogie_program, axioms=axioms),
        )
        report = check_program_certificate(lying, certificate)
        assert not report.ok and not report.axioms_ok
        assert "axiom not satisfied by the model" in report.error

    def test_check_seconds_recorded(self):
        result = translated()
        _cert, report = certify_translation(result)
        assert report.check_seconds > 0

    def test_certified_and_semantically_validated_agree(self):
        """The capstone: certification (syntactic kernel) and the oracle
        (semantic co-execution) both accept the same translation."""
        result = translated()
        _cert, report = certify_translation(result)
        assert report.ok
        for verdict in validate_program_semantically(result, max_states_per_method=8):
            assert verdict.ok
