"""Tests for the benchmark corpus and the evaluation pipeline."""

import pytest

from repro.harness import (
    aggregate,
    aggregate_overall,
    analysis_overhead,
    bench_report,
    blowup_factor,
    full_corpus,
    generate_file,
    render_detail_table,
    render_table1,
    run_file,
    run_files,
    suite_files,
    TABLE2_SELECTION,
)
from repro.viper import check_program, parse_program


class TestCorpusShape:
    """The corpus mirrors the paper's Table 1 structure exactly."""

    @pytest.mark.parametrize(
        "suite,files,methods",
        [("Viper", 34, 105), ("Gobra", 17, 65), ("VerCors", 18, 116), ("MPP", 3, 13)],
    )
    def test_suite_counts_match_the_paper(self, suite, files, methods):
        corpus = suite_files(suite)
        assert len(corpus) == files
        total_methods = 0
        for corpus_file in corpus:
            program = parse_program(corpus_file.source)
            total_methods += len(program.methods)
        assert total_methods == methods

    def test_total_is_72_files_299_methods(self):
        corpus = full_corpus()
        assert sum(len(files) for files in corpus.values()) == 72
        total = 0
        for files in corpus.values():
            for corpus_file in files:
                total += len(parse_program(corpus_file.source).methods)
        assert total == 299

    def test_generation_is_deterministic(self):
        first = generate_file("Gobra", "fail1", 44, 3)
        second = generate_file("Gobra", "fail1", 44, 3)
        assert first.source == second.source

    def test_every_file_typechecks(self):
        for files in full_corpus().values():
            for corpus_file in files:
                program = parse_program(corpus_file.source)
                check_program(program)

    def test_every_file_uses_the_heap(self):
        # The paper's selection criterion: at least one acc predicate.
        for files in full_corpus().values():
            for corpus_file in files:
                assert "acc(" in corpus_file.source, corpus_file.name

    def test_table2_selection_exists(self):
        corpus = full_corpus()
        for suite, name in TABLE2_SELECTION:
            assert any(f.name == name for f in corpus[suite]), (suite, name)


class TestRunner:
    def test_run_file_metrics(self):
        corpus_file = generate_file("Viper", "0008", 12, 2)
        metrics = run_file(corpus_file)
        assert metrics.certified, metrics.error
        assert metrics.methods == 2
        assert metrics.viper_loc > 0
        assert metrics.boogie_loc > metrics.viper_loc
        assert metrics.cert_loc > 0
        assert metrics.check_seconds > 0

    def test_run_file_records_analyze_timing(self):
        corpus_file = generate_file("Viper", "0008", 12, 2)
        metrics = run_file(corpus_file)
        assert metrics.analyze_seconds > 0
        assert metrics.total_seconds > metrics.analyze_seconds
        payload = metrics.to_dict()
        assert "analyze_seconds" in payload and "total_seconds" in payload

    def test_analysis_overhead_within_budget_on_full_corpus(self):
        # The acceptance criterion: the advisory analyze stage stays under
        # 5% of pipeline wall-clock over the *full* benchmark corpus (the
        # denominator the budget is defined against — tiny suites like MPP
        # legitimately sit higher because their per-file pipelines are
        # cheap).  ``bench --json`` publishes the same summary.  The share
        # is read warm: the median of three passes after an untimed one,
        # since a first pass pays first calls and any one pass can take a
        # collection of the whole test session's heap inside ``analyze``.
        corpus = full_corpus()
        run_files([f for files in corpus.values() for f in files])
        passes = sorted(
            ({suite: run_files(files) for suite, files in corpus.items()}
             for _ in range(3)),
            key=lambda per_suite: analysis_overhead(per_suite)["fraction"],
        )
        per_suite = passes[1]
        summary = analysis_overhead(per_suite)
        assert summary["analyze_seconds"] > 0
        assert summary["budget_fraction"] == 0.05
        assert summary["within_budget"], summary
        report = bench_report(per_suite)
        assert report["analysis_overhead"] == summary
        # Every per-file row carries the analyze timing bench consumes.
        for metrics in per_suite.values():
            assert all(m.total_seconds > m.analyze_seconds > 0 for m in metrics)

    def test_aggregate(self):
        files = suite_files("MPP")
        metrics = run_files(files)
        row = aggregate("MPP", metrics)
        assert row.files == 3
        assert row.methods == 13
        assert row.all_certified

    def test_render_tables(self):
        metrics = run_files(suite_files("MPP"))
        per_suite = {"MPP": metrics}
        table1 = render_table1(per_suite)
        assert "MPP" in table1 and "Overall" in table1
        detail = render_detail_table(metrics, "Table 4: MPP")
        assert "banerjee" in detail

    def test_blowup_is_positive(self):
        metrics = run_files(suite_files("MPP"))
        factor = blowup_factor({"MPP": metrics})
        assert factor > 1.0
