"""`repro bench record` / `bench diff` end to end.

The live-harness paths run on a one-file MPP subset (`--limit 1`) to
keep the suite fast; the statistical paths run on pre-recorded history
files so no timing noise can flake them.  The headline acceptance
scenario — a seeded 2× translate slowdown via ``REPRO_STAGE_DELAY``
exits 1 and names ``translate`` — runs here exactly as the CI perf-gate
job runs it.
"""

from __future__ import annotations

import gc
import json
import random

import pytest

from repro.cli import main
from repro.perf import (
    HOST_REFERENCE_KEY,
    append_record,
    make_record,
    read_history,
)

from .helpers import synth_samples

def _write_history(path, reports, label=""):
    for report in reports:
        append_record(str(path), make_record(report, label=label))
    return str(path)


@pytest.fixture
def base_history(tmp_path):
    return _write_history(
        tmp_path / "base.jsonl", synth_samples(301, 3), label="baseline"
    )


class TestBenchRecord:
    def test_records_samples_with_label(self, tmp_path, capsys):
        out = tmp_path / "hist.jsonl"
        code = main([
            "bench", "record", "--suite", "MPP", "--limit", "1",
            "--samples", "2", "--label", "ci", "--out", str(out),
        ])
        assert code == 0
        assert "recorded 2 sample(s)" in capsys.readouterr().out
        records = read_history(str(out))
        assert len(records) == 2
        assert all(r.label == "ci" for r in records)
        assert all(r.fingerprint["cpu_count"] >= 1 for r in records)
        # Each sample carries the host's speed while it ran.
        assert all(
            r.report["meta"][HOST_REFERENCE_KEY] > 0 for r in records
        )
        files = records[0].report["suites"]["MPP"]["files"]
        assert len(files) == 1

    def test_record_appends_not_truncates(self, tmp_path, capsys):
        out = tmp_path / "hist.jsonl"
        for _ in range(2):
            assert main([
                "bench", "record", "--suite", "MPP", "--limit", "1",
                "--out", str(out),
            ]) == 0
        capsys.readouterr()
        assert len(read_history(str(out))) == 2

    def test_empty_selection_exits_two(self, tmp_path, capsys):
        out = tmp_path / "hist.jsonl"
        code = main([
            "bench", "record", "--suite", "MPP", "--limit", "0",
            "--out", str(out),
        ])
        assert code == 2
        assert "no corpus files" in capsys.readouterr().err


class TestBenchDiffRecorded:
    """Diffs over pre-recorded history files: deterministic, no harness."""

    def test_identical_histories_exit_zero(self, tmp_path, base_history, capsys):
        assert main(["bench", "diff", base_history, base_history]) == 0
        out = capsys.readouterr().out
        assert "no regressions" in out

    def test_five_consecutive_invocations_agree(self, base_history, tmp_path, capsys):
        current = _write_history(tmp_path / "cur.jsonl", synth_samples(302, 3))
        codes = set()
        for _ in range(5):
            codes.add(main(["bench", "diff", base_history, current]))
            capsys.readouterr()
        assert codes == {0}

    def test_seeded_slowdown_exits_one_and_names_translate(
        self, base_history, tmp_path, capsys
    ):
        current = _write_history(
            tmp_path / "slow.jsonl",
            synth_samples(303, 3, scale={"translate_seconds": 2.0}),
        )
        code = main(["bench", "diff", base_history, current])
        out = capsys.readouterr().out
        assert code == 1
        assert "stage(s) translate" in out

    def test_json_output_names_the_guilty_stage(
        self, base_history, tmp_path, capsys
    ):
        current = _write_history(
            tmp_path / "slow.jsonl",
            synth_samples(304, 3, scale={"translate_seconds": 2.0}),
        )
        code = main(["bench", "diff", base_history, current, "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 1
        assert payload["regressions"]
        assert all(
            r["guilty_stages"][0] == "translate"
            for r in payload["regressions"]
        )

    def test_text_output_has_one_row_per_stage(self, base_history, capsys):
        assert main(["bench", "diff", base_history, base_history]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "each stage summed over the 3 file(s) every sample measured" in lines
        for stage in ("translate", "generate", "check", "analyze", "total"):
            assert len([line for line in lines if line.startswith(f"{stage} ")]) == 1

    def test_file_missing_from_a_current_sample_is_not_compared(
        self, base_history, tmp_path, capsys
    ):
        reports = synth_samples(308, 3)
        files = reports[1]["suites"]["Viper"]["files"]
        files[:] = [row for row in files if row["name"] != "c"]
        current = _write_history(tmp_path / "cur.jsonl", reports)
        code = main(["bench", "diff", base_history, current, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["files"] == ["Viper/a", "Viper/b"]
        assert payload["missing_in_current"] == ["Viper/c"]
        assert payload["missing_in_base"] == []

    def test_json_to_file(self, base_history, tmp_path, capsys):
        out = tmp_path / "diff.json"
        assert main([
            "bench", "diff", base_history, base_history, "--json", str(out),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["ok"] is True

    def test_label_filter(self, tmp_path, capsys):
        path = tmp_path / "mixed.jsonl"
        _write_history(path, synth_samples(305, 2), label="good")
        _write_history(
            path,
            synth_samples(306, 2, scale={"translate_seconds": 5.0}),
            label="slow",
        )
        current = _write_history(tmp_path / "cur.jsonl", synth_samples(307, 2))
        # Against the full mixed history the slow label's samples drag
        # the baseline median up; selecting --label good compares only
        # the clean samples.
        assert main([
            "bench", "diff", str(path), current, "--label", "good",
        ]) == 0
        capsys.readouterr()
        assert main([
            "bench", "diff", str(path), current, "--label", "missing",
        ]) == 2
        assert "no records with label" in capsys.readouterr().err

    def test_unreadable_base_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["bench", "diff", missing]) == 2
        assert "bench diff" in capsys.readouterr().err

    def test_missing_base_argument_exits_two(self, capsys):
        assert main(["bench", "diff"]) == 2
        capsys.readouterr()


@pytest.fixture
def small_heap():
    """Give the in-process CLI the small heap of the fresh process the CI
    gate runs it in: the test session's objects are collected first and
    frozen out of the collector's scans meanwhile, so a full collection of
    them cannot land in one of a few samples' stages and pass for a
    regression."""
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


@pytest.mark.usefixtures("small_heap")
class TestBenchDiffLive:
    """The CI-gate path: record live, then diff live against it."""

    def test_clean_tree_diffs_clean_against_its_own_recording(
        self, tmp_path, capsys
    ):
        out = tmp_path / "hist.jsonl"
        assert main([
            "bench", "record", "--suite", "MPP", "--limit", "1",
            "--samples", "2", "--out", str(out),
        ]) == 0
        code = main([
            "bench", "diff", str(out), "--suite", "MPP", "--limit", "1",
            "--samples", "2",
        ])
        capsys.readouterr()
        assert code == 0

    def test_injected_translate_delay_exits_one_and_names_translate(
        self, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "hist.jsonl"
        assert main([
            "bench", "record", "--suite", "MPP", "--limit", "1",
            "--samples", "2", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        monkeypatch.setenv("REPRO_STAGE_DELAY", "translate=0.05")
        code = main([
            "bench", "diff", str(out), "--suite", "MPP", "--limit", "1",
            "--samples", "2", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["regressions"]
        assert all(
            r["guilty_stages"][0] == "translate"
            for r in payload["regressions"]
        )


    def test_injected_check_delay_exits_one_and_names_check(
        self, tmp_path, capsys, monkeypatch
    ):
        # check is most of every file's time: a slower check must page,
        # not be mistaken for a slower machine.  The first file of the CI
        # gate's Viper subset, as the perf-gate job injects it.
        out = tmp_path / "hist.jsonl"
        assert main([
            "bench", "record", "--suite", "Viper", "--limit", "1",
            "--samples", "2", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        monkeypatch.setenv("REPRO_STAGE_DELAY", "check=0.05")
        code = main([
            "bench", "diff", str(out), "--suite", "Viper", "--limit", "1",
            "--samples", "2", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["calibration"]["applied"]
        assert payload["regressions"]
        assert all(
            r["guilty_stages"][0] == "check" for r in payload["regressions"]
        )


class TestBenchLimit:
    def test_plain_bench_respects_limit(self, capsys):
        assert main(["bench", "MPP", "--limit", "1", "--json", "-"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert len(payload["suites"]["MPP"]["files"]) == 1

    def test_meta_carries_the_fingerprint(self, capsys):
        assert main(["bench", "MPP", "--limit", "1", "--json", "-"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert {"repro_version", "git_describe", "cpu_count", "python",
                "platform", "jobs"} <= set(payload["meta"])
