"""Method compilation units: digests, dependency maps, and cache keys.

The invalidation contract under test is exactly the issue's acceptance
criterion (and the paper's C1/C2 dependency structure, Sec. 4.2):

* a callee **body** edit changes only the callee's key — every caller's
  key (and cached artifacts) survive;
* a callee **pre/post** edit changes its interface digest and therefore
  the key of the unit itself *and* of every transitive caller;
* **renaming** a method leaves former callers with an unresolvable
  callee, which the key records as a ``missing:`` marker — former
  callers are invalidated too.

End-to-end variants re-run the staged pipeline against a shared
:class:`ArtifactCache` and assert, via the instrumentation's
``unit_cache_summary``, which units were reused versus rebuilt.
"""

from __future__ import annotations

import pytest

from repro.frontend import TranslationOptions
from repro.pipeline import stages
from repro.pipeline import (
    ArtifactCache,
    body_digest,
    callers_of,
    extract_units,
    fields_digest,
    interface_digest,
    method_interface_text,
    options_digest,
    run_pipeline,
    transitive_callees,
    unit_cache_key,
    unit_keys,
)
from repro.viper import parse_program
from repro.viper.ast import DuplicateDeclarationError, Program

CHAIN = """
field f: Int

method leaf(x: Ref)
  requires acc(x.f, write)
  ensures acc(x.f, write) && x.f == 1
{
  x.f := 1
}

method mid(x: Ref)
  requires acc(x.f, write)
  ensures acc(x.f, write)
{
  leaf(x)
}

method top(x: Ref)
  requires acc(x.f, write)
  ensures acc(x.f, write)
{
  mid(x)
}

method bystander(x: Ref)
  requires acc(x.f, write)
  ensures acc(x.f, write)
{
  x.f := 3
}
"""

#: leaf body edit: same spec, different statement.
CHAIN_BODY_EDIT = CHAIN.replace("x.f := 1\n", "x.f := 0 + 1\n")

#: leaf spec edit: a strictly different postcondition.
CHAIN_SPEC_EDIT = CHAIN.replace(
    "ensures acc(x.f, write) && x.f == 1", "ensures acc(x.f, write) && x.f > 0"
)

#: leaf renamed: mid now calls a method that no longer exists.
CHAIN_RENAMED = CHAIN.replace("method leaf", "method foliage")


def units_for(source: str):
    # Raw parse (no typecheck): the rename variant deliberately leaves a
    # dangling call, which the typechecker would reject.  None of these
    # programs contain desugarable constructs, so the digests match what
    # the pipeline's units stage computes (proven below by the end-to-end
    # tests driving run_pipeline itself).
    program = parse_program(source)
    return program, extract_units(program)


def keys_for(source: str, options=None):
    program, units = units_for(source)
    return unit_keys(units, program, options or TranslationOptions())


class TestDigests:
    def test_interface_text_has_no_body(self):
        program, _ = units_for(CHAIN)
        text = method_interface_text(program.method("leaf"))
        assert "method leaf" in text
        assert "requires" in text and "ensures" in text
        assert ":=" not in text

    def test_whitespace_only_edit_changes_no_digest(self):
        _, before = units_for(CHAIN)
        _, after = units_for(CHAIN.replace("\n{\n", "\n\n{\n"))
        assert before == after

    def test_body_edit_changes_body_not_interface(self):
        program, _ = units_for(CHAIN)
        edited, _ = units_for(CHAIN_BODY_EDIT)
        assert body_digest(program.method("leaf")) != body_digest(
            edited.method("leaf")
        )
        assert interface_digest(program.method("leaf")) == interface_digest(
            edited.method("leaf")
        )

    def test_spec_edit_changes_both_digests(self):
        program, _ = units_for(CHAIN)
        edited, _ = units_for(CHAIN_SPEC_EDIT)
        assert body_digest(program.method("leaf")) != body_digest(
            edited.method("leaf")
        )
        assert interface_digest(program.method("leaf")) != interface_digest(
            edited.method("leaf")
        )


class TestDependencyMap:
    def test_direct_callees_are_recorded(self):
        _, units = units_for(CHAIN)
        assert units["top"].callees == ("mid",)
        assert units["mid"].callees == ("leaf",)
        assert units["leaf"].callees == ()
        assert units["bystander"].callees == ()

    def test_transitive_closure_and_callers(self):
        _, units = units_for(CHAIN)
        assert transitive_callees(units, "top") == {"mid", "leaf"}
        assert callers_of(units, "leaf") == {"mid", "top"}
        assert callers_of(units, "bystander") == frozenset()

    def test_dangling_callee_is_observable(self):
        _, units = units_for(CHAIN_RENAMED)
        assert "leaf" in transitive_callees(units, "top")
        assert "leaf" not in units


class TestUnitKeys:
    def test_callee_body_edit_invalidates_only_the_callee(self):
        before, after = keys_for(CHAIN), keys_for(CHAIN_BODY_EDIT)
        assert before["leaf"] != after["leaf"]
        for survivor in ("mid", "top", "bystander"):
            assert before[survivor] == after[survivor]

    def test_callee_spec_edit_invalidates_all_transitive_callers(self):
        before, after = keys_for(CHAIN), keys_for(CHAIN_SPEC_EDIT)
        for rebuilt in ("leaf", "mid", "top"):
            assert before[rebuilt] != after[rebuilt]
        assert before["bystander"] == after["bystander"]

    def test_rename_invalidates_former_callers(self):
        before, after = keys_for(CHAIN), keys_for(CHAIN_RENAMED)
        # mid and top both (transitively) depended on `leaf`; its
        # disappearance leaves a `missing:` marker in their keys.
        assert before["mid"] != after["mid"]
        assert before["top"] != after["top"]
        assert before["bystander"] == after["bystander"]

    def test_field_declarations_are_part_of_every_key(self):
        before = keys_for(CHAIN)
        after = keys_for(CHAIN.replace("field f: Int", "field f: Int\nfield g: Int"))
        for name in before:
            assert before[name] != after[name]

    def test_options_are_part_of_every_key(self):
        before = keys_for(CHAIN, TranslationOptions())
        after = keys_for(CHAIN, TranslationOptions(wd_checks_at_calls=True))
        for name in before:
            assert before[name] != after[name]

    def test_options_digest_default_matches_explicit_default(self):
        assert options_digest(None) == options_digest(TranslationOptions())

    def test_keys_are_deterministic_across_extractions(self):
        assert keys_for(CHAIN) == keys_for(CHAIN)


class TestProgramIndex:
    def test_duplicate_method_names_are_rejected(self):
        program, _ = units_for(CHAIN)
        twin = Program(
            fields=program.fields,
            methods=program.methods + (program.method("leaf"),),
        )
        with pytest.raises(DuplicateDeclarationError):
            twin.method("leaf")

    def test_method_lookup_is_by_name(self):
        program, _ = units_for(CHAIN)
        assert program.method("top").name == "top"
        assert program.has_method("mid")
        assert not program.has_method("nope")
        with pytest.raises(KeyError):
            program.method("nope")


def summary_of(source: str, cache: ArtifactCache):
    ctx = run_pipeline(source, cache=cache)
    assert ctx.report is not None and ctx.report.ok
    return ctx.instrumentation.unit_cache_summary()


class TestEndToEndIncrementality:
    """The acceptance criterion, driven through the real pipeline."""

    def test_body_edit_rebuilds_exactly_one_unit(self):
        cache = ArtifactCache()
        cold = summary_of(CHAIN, cache)
        assert sorted(cold["rebuilt_methods"]) == [
            "bystander", "leaf", "mid", "top",
        ]
        warm = summary_of(CHAIN_BODY_EDIT, cache)
        assert warm["rebuilt_methods"] == ["leaf"]
        assert sorted(warm["reused_methods"]) == ["bystander", "mid", "top"]

    def test_spec_edit_rebuilds_the_unit_and_its_callers(self):
        cache = ArtifactCache()
        summary_of(CHAIN, cache)
        warm = summary_of(CHAIN_SPEC_EDIT, cache)
        assert sorted(warm["rebuilt_methods"]) == ["leaf", "mid", "top"]
        assert warm["reused_methods"] == ["bystander"]

    def test_rename_rebuilds_former_callers(self):
        cache = ArtifactCache()
        summary_of(CHAIN, cache)
        # A *consistent* rename (call sites updated too) keeps the program
        # certifiable; the inconsistent variant's key churn is covered in
        # TestUnitKeys above.
        consistent = CHAIN_RENAMED.replace("leaf(x)", "foliage(x)")
        warm = summary_of(consistent, cache)
        assert sorted(warm["rebuilt_methods"]) == ["foliage", "mid", "top"]
        assert warm["reused_methods"] == ["bystander"]

    def test_identical_rerun_reuses_every_unit(self):
        cache = ArtifactCache()
        summary_of(CHAIN, cache)
        warm = summary_of(CHAIN, cache)
        assert warm["rebuilt"] == 0
        assert sorted(warm["reused_methods"]) == [
            "bystander", "leaf", "mid", "top",
        ]
        assert warm["tiers"] == {"memory": 4}

    def test_trusted_stages_run_fresh_on_every_request(self):
        cache = ArtifactCache()
        ctx = run_pipeline(CHAIN, cache=cache)
        warm = run_pipeline(CHAIN_BODY_EDIT, cache=cache)
        for trusted in ("reparse", "check"):
            record = next(
                r for r in warm.instrumentation.records if r.stage == trusted
            )
            assert not record.cached and not record.skipped
        assert warm.report is not None and warm.report.ok


#: CHAIN's methods in declaration order.
CHAIN_METHODS = ["leaf", "mid", "top", "bystander"]


@pytest.fixture
def unit_calls(monkeypatch):
    """The method names the translate and generate stages hand to the
    frontend and the tactic, spied on through ``repro.pipeline.stages``'
    module globals (the names perfbench's layer timers wrap)."""
    calls = {"translate": [], "generate": []}
    translate, generate = stages.translate_method, stages.generate_method_certificate

    def translate_spy(program, type_info, method, options):
        calls["translate"].append(method.name)
        return translate(program, type_info, method, options)

    def generate_spy(translated):
        calls["generate"].append(translated.method_name)
        return generate(translated)

    monkeypatch.setattr(stages, "translate_method", translate_spy)
    monkeypatch.setattr(stages, "generate_method_certificate", generate_spy)
    return calls


class TestUnitLoops:
    """translate and generate build each missing unit in turn, in
    declaration order, through the module globals."""

    def test_each_method_goes_through_the_module_globals_once(self, unit_calls):
        ctx = run_pipeline(CHAIN)
        assert ctx.report is not None and ctx.report.ok
        assert unit_calls == {"translate": CHAIN_METHODS, "generate": CHAIN_METHODS}

    def test_reused_units_skip_the_module_globals(self, unit_calls):
        cache = ArtifactCache()
        run_pipeline(CHAIN, cache=cache)
        unit_calls["translate"].clear()
        unit_calls["generate"].clear()
        run_pipeline(CHAIN_BODY_EDIT, cache=cache)
        assert unit_calls == {"translate": ["leaf"], "generate": ["leaf"]}

    def test_unit_records_come_in_declaration_order(self):
        cache = ArtifactCache()
        run_pipeline(CHAIN, cache=cache)
        warm = run_pipeline(CHAIN_BODY_EDIT, cache=cache).instrumentation
        for stage in ("translate", "generate"):
            assert [
                (u.method, u.reused) for u in warm.unit_records if u.stage == stage
            ] == [("leaf", False), ("mid", True), ("top", True), ("bystander", True)]

    def test_fresh_units_tile_their_stage_without_overlap(self):
        # Each unit is recorded as its work ends, so its start is exact:
        # the units follow one another inside their stage's wall-clock.
        inst = run_pipeline(CHAIN).instrumentation
        eps = 1e-6
        for stage in ("translate", "generate"):
            (record,) = [r for r in inst.records if r.stage == stage]
            stage_end = record.started + record.seconds + record.cache_lookup_seconds
            previous_end = record.started
            for unit in (u for u in inst.unit_records if u.stage == stage):
                assert unit.seconds > 0
                assert unit.started >= previous_end - eps
                previous_end = unit.started + unit.seconds
            assert previous_end <= stage_end + eps
