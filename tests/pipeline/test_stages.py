"""The staged pipeline: stage graph, artifacts, and seed-equivalence.

The acceptance bar for the refactor: ``repro.pipeline`` is the only place
the stage sequence is spelled out, and every legacy entry point
(`translate_source`, `certify_source`, the harness runner) produces the
same artifacts as the seed implementation did — verified here by
re-implementing the seed flow inline and comparing everything except
wall-clock timings.
"""

import time

import pytest

from repro.boogie.pretty import pretty_boogie_program
from repro.certification import (
    check_program_certificate,
    generate_program_certificate,
    parse_program_certificate,
    render_program_certificate,
)
from repro.frontend import translate_program, TranslationOptions
from repro.harness import FileMetrics, generate_file, metrics_from_context, run_file
from repro.pipeline import (
    PipelineInstrumentation,
    run_pipeline,
    run_stage,
    make_context,
    resume_pipeline,
    STAGE_NAMES,
    STAGES,
    stage_index,
)
from repro.viper import parse_program
from repro.viper.pretty import count_loc
from repro.viper.typechecker import check_program

SIMPLE = """
field f: Int

method inc(x: Ref) returns (y: Int)
  requires acc(x.f, write)
  ensures acc(x.f, write) && y == x.f
{
  x.f := x.f + 1
  y := x.f
}
"""

LOOPY = """
field f: Int
method m(x: Ref, n: Int)
  requires acc(x.f, write) && n >= 0 ensures acc(x.f, write)
{
  var i: Int
  i := 0
  while (i < n) invariant acc(x.f, write) && i >= 0 { i := i + 1 }
}
"""


class TestStageGraph:
    def test_stage_order_is_the_papers_workflow(self):
        assert STAGE_NAMES == (
            "parse",
            "desugar",
            "typecheck",
            "units",
            "analyze",
            "translate",
            "generate",
            "render",
            "reparse",
            "check",
        )

    def test_stage_index_rejects_unknown_stages(self):
        with pytest.raises(KeyError):
            stage_index("optimise")

    def test_every_stage_provides_a_context_attribute(self):
        ctx = run_pipeline(SIMPLE)
        for stage in STAGES:
            assert getattr(ctx, stage.provides) is not None, stage.name
        assert ctx.completed == set(STAGE_NAMES)

    def test_instrumentation_records_every_stage_in_order(self):
        inst = PipelineInstrumentation()
        run_pipeline(SIMPLE, instrumentation=inst)
        assert [r.stage for r in inst.records] == list(STAGE_NAMES)
        assert all(not r.skipped for r in inst.records)
        sizes = inst.artifact_sizes()
        assert sizes["viper_loc"] > 0
        assert sizes["boogie_loc"] > sizes["viper_loc"]
        assert sizes["cert_loc"] > 0

    def test_upto_stops_early(self):
        ctx = run_pipeline(SIMPLE, upto="translate")
        assert ctx.translation is not None
        assert ctx.certificate is None and ctx.report is None
        assert "generate" not in ctx.completed

    def test_stages_are_individually_invokable_and_resumable(self):
        ctx = make_context(SIMPLE)
        run_stage(ctx, "parse")
        assert ctx.program is not None and ctx.completed == {"parse"}
        resume_pipeline(ctx, upto="check")
        assert ctx.report.ok
        # Each stage ran exactly once despite the resume re-walking the graph.
        assert all(
            ctx.instrumentation.counters[f"stage.{name}.runs"] == 1
            for name in STAGE_NAMES
        )

    def test_observer_hook_sees_every_record(self):
        seen = []
        inst = PipelineInstrumentation()
        inst.add_observer(lambda record: seen.append(record.stage))
        run_pipeline(SIMPLE, upto="typecheck", instrumentation=inst)
        assert seen == ["parse", "desugar", "typecheck"]


class TestSeedEquivalence:
    """The pipeline reproduces the seed implementations bit-for-bit."""

    def test_translate_source_matches_seed_flow(self):
        # The seed flow: parse → desugar passes → typecheck → translate.
        import repro

        program = parse_program(SIMPLE)
        type_info = check_program(program)
        seed = translate_program(program, type_info, None)
        piped = repro.translate_source(SIMPLE)
        assert pretty_boogie_program(piped.boogie_program) == pretty_boogie_program(
            seed.boogie_program
        )

    def test_certify_source_matches_seed_flow(self):
        import repro

        report = repro.certify_source(SIMPLE)
        assert report.ok
        assert sorted(report.method_reports) == ["inc"]

    def _seed_run_file(self, corpus_file, options=None):
        """The seed harness ``run_file``, reproduced inline (no desugaring)."""
        program = parse_program(corpus_file.source)
        type_info = check_program(program)
        start = time.perf_counter()
        result = translate_program(program, type_info, options)
        translate_seconds = time.perf_counter() - start
        start = time.perf_counter()
        certificate = generate_program_certificate(result)
        cert_text = render_program_certificate(certificate)
        generate_seconds = time.perf_counter() - start
        start = time.perf_counter()
        reparsed = parse_program_certificate(cert_text)
        report = check_program_certificate(result, reparsed)
        check_seconds = time.perf_counter() - start
        return FileMetrics(
            suite=corpus_file.suite,
            name=corpus_file.name,
            methods=len(program.methods),
            viper_loc=count_loc(corpus_file.source),
            boogie_loc=count_loc(pretty_boogie_program(result.boogie_program)),
            cert_loc=len([l for l in cert_text.splitlines() if l.strip()]),
            translate_seconds=translate_seconds,
            generate_seconds=generate_seconds,
            check_seconds=check_seconds,
            certified=report.ok,
            error=report.error,
        )

    @pytest.mark.parametrize(
        "suite,name,loc,methods",
        [("Viper", "0008", 12, 2), ("MPP", "darvas", 91, 2)],
    )
    def test_run_file_metrics_identical_to_seed_modulo_timing(
        self, suite, name, loc, methods
    ):
        corpus_file = generate_file(suite, name, loc, methods)
        seed = self._seed_run_file(corpus_file)
        piped = run_file(corpus_file)
        for field_name in (
            "suite",
            "name",
            "methods",
            "viper_loc",
            "boogie_loc",
            "cert_loc",
            "certified",
            "error",
        ):
            assert getattr(piped, field_name) == getattr(seed, field_name), field_name
        assert piped.translate_seconds > 0
        assert piped.generate_seconds > 0
        assert piped.check_seconds > 0

    def test_run_file_with_options_matches_seed(self):
        corpus_file = generate_file("Gobra", "simple2", 10, 1)
        options = TranslationOptions(wd_checks_at_calls=True, literal_perm_fastpath=False)
        seed = self._seed_run_file(corpus_file, options)
        piped = run_file(corpus_file, options)
        assert piped.boogie_loc == seed.boogie_loc
        assert piped.cert_loc == seed.cert_loc
        assert piped.certified == seed.certified


class TestLoopDesugaringRegression:
    """Regression for the harness bug: ``run_file`` skipped the desugaring
    passes, so corpus programs with ``while`` loops crashed the runner."""

    def test_run_file_certifies_a_while_loop_program(self):
        from repro.harness.corpus import CorpusFile

        corpus_file = CorpusFile(suite="Viper", name="loopy", source=LOOPY, paper_loc=9)
        metrics = run_file(corpus_file)
        assert metrics.certified, metrics.error
        assert metrics.methods == 1

    def test_seed_flow_without_desugaring_fails_on_loops(self):
        # Documents why the fix matters: the pre-refactor harness flow
        # (no desugar stage) cannot handle the same program.
        program = parse_program(LOOPY)
        with pytest.raises(Exception):
            type_info = check_program(program)
            translate_program(program, type_info, None)

    def test_certify_source_handles_the_same_program(self):
        import repro

        assert repro.certify_source(LOOPY).ok

    def test_metrics_from_context_reports_incomplete_pipeline(self):
        from repro.harness.corpus import CorpusFile

        corpus_file = CorpusFile(suite="Viper", name="partial", source=SIMPLE, paper_loc=9)
        ctx = run_pipeline(SIMPLE, upto="translate")
        metrics = metrics_from_context(corpus_file, ctx)
        assert not metrics.certified
        assert metrics.error == "pipeline incomplete"
        assert metrics.boogie_loc > 0


class TestDesugarKeywordGate:
    """The desugar stage walks for loops, allocations and old-expressions
    only when the source holds ``while``, ``new`` or ``old``: the parser
    builds those nodes from those keywords alone.  On every input the
    gated stage gives the program the ungated walks would."""

    @staticmethod
    def _ungated(program):
        from repro.viper import (
            desugar_loops, desugar_new, desugar_old, hoist_call_args,
            program_has_complex_call_args, program_has_loops,
            program_has_new, program_has_old,
        )

        for has, desugar in (
            (program_has_loops, desugar_loops),
            (program_has_new, desugar_new),
            (program_has_old, desugar_old),
            (program_has_complex_call_args, hoist_call_args),
        ):
            if has(program):
                program = desugar(program)
        return program

    def test_gated_desugaring_matches_the_walks(self):
        from repro.fuzz.generate import generate_corpus, SEED_CORPUS
        from repro.harness import full_corpus

        sources = [item.source for items in full_corpus().values() for item in items]
        sources += [generated.source for generated in generate_corpus(7, 60)]
        sources += list(SEED_CORPUS) + [LOOPY]
        desugared = 0
        for source in sources:
            program = parse_program(source)
            expected = self._ungated(program)
            assert run_pipeline(source, upto="desugar").program == expected
            desugared += expected != program
        assert desugared >= 10  # the walks did find loops, new and old
