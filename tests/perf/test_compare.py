"""Comparator calibration: zero false positives under jitter, guaranteed
detection of a seeded 2× slowdown named by its stage, per-stage sums over
the files every sample measured, and a machine factor taken from the host
references, never from the stages."""

from __future__ import annotations

import json
import random
import statistics

import pytest

from repro.perf import (
    STAGE_FIELDS,
    bootstrap_ratio_ci,
    compare_reports,
    file_records,
)
from repro.perf.compare import (
    BOOTSTRAP, CONFIDENCE, MIN_SECONDS, NOISE_FLOOR, SEED,
)

from .helpers import BASE_STAGES, synth_samples


EVERY_STAGE = ("translate_seconds", "generate_seconds", "check_seconds",
               "analyze_seconds")
STAGES = ("translate", "generate", "check", "analyze", "total")


def _rows(report, suite="Viper"):
    return report["suites"][suite]["files"]


def _sums(reports, field):
    """Per report, ``field`` summed over its rows, in row order."""
    return [sum(row[field] for row in _rows(report)) for report in reports]


def _diff(base_seed, current_seed, *, scale=None, samples=3, jitter=0.05,
          **kwargs):
    base = synth_samples(base_seed, samples, jitter=jitter)
    current = synth_samples(current_seed, samples, jitter=jitter, scale=scale)
    return compare_reports(base, current, **kwargs)


class TestBootstrapCI:
    def test_single_samples_degenerate_to_the_point_ratio(self):
        lo, hi = bootstrap_ratio_ci([0.010], [0.020])
        assert lo == hi == pytest.approx(2.0)

    def test_deterministic_for_a_fixed_seed(self):
        rng = random.Random(3)
        base = [0.01 * (1 + rng.uniform(-0.1, 0.1)) for _ in range(5)]
        cur = [0.02 * (1 + rng.uniform(-0.1, 0.1)) for _ in range(5)]
        first = bootstrap_ratio_ci(base, cur, seed=42)
        second = bootstrap_ratio_ci(base, cur, seed=42)
        assert first == second
        assert first[0] <= first[1]

    def test_interval_brackets_a_real_doubling(self):
        rng = random.Random(11)
        base = [0.01 * (1 + rng.uniform(-0.05, 0.05)) for _ in range(6)]
        cur = [0.02 * (1 + rng.uniform(-0.05, 0.05)) for _ in range(6)]
        lo, hi = bootstrap_ratio_ci(base, cur, seed=0)
        assert 1.5 < lo <= hi < 2.5

    def test_empty_side_is_infinite(self):
        assert bootstrap_ratio_ci([], [0.01]) == (float("inf"), float("inf"))


class TestZeroFalsePositives:
    def test_no_regressions_over_200_jittered_run_pairs(self):
        # ≥200 synthetic (baseline, current) pairs drawn from the SAME
        # timing distribution with ±10% jitter: the default noise floor
        # must page on none of them.  5 comparable stage sums per pair →
        # a thousand individual comparisons.
        false_positives = 0
        for pair in range(200):
            diff = _diff(
                base_seed=1000 + pair,
                current_seed=5000 + pair,
                samples=3,
                jitter=0.10,
            )
            assert diff.exit_code in (0, 1)
            assert diff.compared_stages > 0
            false_positives += diff.regressed
        assert false_positives == 0

    def test_identical_sample_sets_always_exit_zero(self):
        reports = synth_samples(77, 3)
        diff = compare_reports(reports, reports)
        assert diff.exit_code == 0
        assert not diff.regressed


class TestSeededSlowdown:
    def test_2x_translate_slowdown_is_detected_and_named_exactly(self):
        diff = _diff(
            base_seed=21,
            current_seed=22,
            scale={"translate_seconds": 2.0},
        )
        assert diff.exit_code == 1
        # No other stage is blamed.
        assert diff.guilty_stages == ["translate"]
        payload = diff.to_dict()
        assert payload["exit_code"] == 1
        assert payload["regressions"] == [{"guilty_stages": ["translate"]}]

    def test_2x_check_slowdown_blames_check(self):
        diff = _diff(base_seed=31, current_seed=32,
                     scale={"check_seconds": 2.0})
        assert diff.exit_code == 1
        assert diff.guilty_stages[0] == "check"

    def test_text_render_names_the_guilty_stage(self):
        diff = _diff(base_seed=41, current_seed=42,
                     scale={"translate_seconds": 2.0})
        text = diff.render()
        assert "REGRESSION" in text
        assert "stage(s) translate" in text

    def test_detection_is_stable_across_the_seed_space(self):
        # The 2× detection must not depend on a lucky seed either.
        for pair in range(25):
            diff = _diff(
                base_seed=8000 + pair,
                current_seed=9000 + pair,
                scale={"translate_seconds": 2.0},
                jitter=0.10,
            )
            assert diff.exit_code == 1, f"pair {pair} missed the slowdown"
            assert diff.guilty_stages[0] == "translate"

    def test_guilty_stages_are_ordered_by_seconds_lost(self):
        # Per file: translate 20 ms, check 60 ms.  Over three files a 3×
        # translate loses 120 ms and a 2× check 180 ms; a 6× translate
        # loses 300 ms.  The order follows the seconds, not the ratios.
        diff = _diff(base_seed=43, current_seed=44,
                     scale={"translate_seconds": 3.0, "check_seconds": 2.0})
        assert diff.guilty_stages == ["check", "translate"]
        diff = _diff(base_seed=43, current_seed=44,
                     scale={"translate_seconds": 6.0, "check_seconds": 2.0})
        assert diff.guilty_stages == ["translate", "check"]

    def test_total_is_not_named_beside_a_specific_stage(self):
        # A 3× check drags the total over the floor too, but the blame
        # goes to the stage that lost the time.
        diff = _diff(base_seed=45, current_seed=46,
                     scale={"check_seconds": 3.0})
        assert diff.stages["total"].regressed
        assert diff.guilty_stages == ["check"]

    def test_total_is_named_only_when_no_stage_clears_the_floor(self):
        # Every stage sums to ~1.8 ms over six files, ~3.6 ms doubled:
        # all skipped.  Their total sums to ~7.2 ms and doubles with
        # them, so a slowdown spread over the stages is still seen.
        tiny = {field: 0.0003 / BASE_STAGES[field] for field in EVERY_STAGE}
        base = synth_samples(47, 3, files=SIX, scale=tiny)
        current = synth_samples(48, 3, files=SIX,
                                scale={k: 2 * v for k, v in tiny.items()})
        diff = compare_reports(base, current)
        assert all(diff.stages[stage].skipped for stage in STAGES[:-1])
        assert not diff.stages["total"].skipped
        assert diff.exit_code == 1
        assert diff.guilty_stages == ["total"]


class TestFiltersAndExitCodes:
    def test_sub_floor_timings_are_skipped(self):
        # Shrink every stage so that even the sums over the files, and
        # so the total, sit under the 5 ms absolute floor: nothing is
        # comparable, which is exit 2, not a confident "no regression" —
        # even though every stage doubled.
        tiny = {field: 0.005 for field in EVERY_STAGE}
        base = synth_samples(51, 3, scale=tiny)
        current = synth_samples(52, 3, scale={k: 2 * v for k, v in tiny.items()})
        assert all(
            sum(row["total_seconds"] for row in report["suites"]["Viper"]["files"])
            < MIN_SECONDS
            for report in base + current
        )
        diff = compare_reports(base, current)
        assert diff.compared_stages == 0
        assert diff.exit_code == 2

    def test_disjoint_file_sets_exit_two_and_are_reported(self):
        base = synth_samples(61, 2, files=("only-in-base",))
        current = synth_samples(62, 2, files=("only-in-current",))
        diff = compare_reports(base, current)
        assert diff.exit_code == 2
        assert diff.missing_in_current == ["Viper/only-in-base"]
        assert diff.missing_in_base == ["Viper/only-in-current"]

    def test_suite_filter_restricts_the_comparison(self):
        base = synth_samples(71, 2)
        current = synth_samples(72, 2)
        diff = compare_reports(base, current, suite="Gobra")
        assert diff.exit_code == 2

    def test_repeated_comparison_is_deterministic(self):
        base = synth_samples(81, 3)
        current = synth_samples(82, 3)
        first = compare_reports(base, current).to_dict()
        second = compare_reports(base, current).to_dict()
        assert first == second

    def test_a_skipped_stage_never_pages(self):
        # generate sums to ~1.2 ms over the three files: doubling it is
        # still under the floor, so it is shown as skipped, not blamed.
        small = {"generate_seconds": 0.05}
        base = synth_samples(83, 3, scale=small)
        current = synth_samples(84, 3, scale={"generate_seconds": 0.1})
        diff = compare_reports(base, current)
        generate = diff.stages["generate"]
        assert generate.skipped and not generate.regressed
        assert generate.ratio > 1.0 + NOISE_FLOOR
        assert diff.exit_code == 0
        (row,) = [line for line in diff.render().splitlines()
                  if line.startswith("generate ")]
        assert row.endswith("skipped (under 5 ms)")

    def test_no_baseline_reports_exit_two(self):
        diff = compare_reports([], synth_samples(85, 2))
        assert diff.stages == {}
        assert diff.files == []
        assert diff.missing_in_base == ["Viper/a", "Viper/b", "Viper/c"]
        assert diff.exit_code == 2
        assert not diff.ok
        assert "nothing comparable" in diff.render()

    def test_suite_filter_sums_only_that_suite(self):
        # Each report also carries a Gobra suite whose check is tenfold
        # slower in the current samples.
        def with_gobra(reports, check_scale):
            for report in reports:
                rows = [dict(row, suite="Gobra") for row in _rows(report)]
                for row in rows:
                    row["total_seconds"] += (check_scale - 1) * row["check_seconds"]
                    row["check_seconds"] *= check_scale
                report["suites"]["Gobra"] = {"files": rows, "aggregate": {}}
            return reports

        base = with_gobra(synth_samples(86, 3), 1.0)
        current = with_gobra(synth_samples(87, 3), 10.0)
        viper = compare_reports(base, current, suite="Viper")
        assert viper.files == ["Viper/a", "Viper/b", "Viper/c"]
        assert viper.exit_code == 0
        both = compare_reports(base, current)
        assert both.files == ["Gobra/a", "Gobra/b", "Gobra/c",
                              "Viper/a", "Viper/b", "Viper/c"]
        assert both.exit_code == 1
        assert both.guilty_stages == ["check"]


#: An idle host's reference-loop time (seconds).
REFERENCE = 150e-6


class TestCalibration:
    def test_uniform_machine_speedup_is_calibrated_away(self):
        # The "current machine" is uniformly 3× slower (a laptop vs a CI
        # runner), and its reference loop says so: the ratios are divided
        # by the factor and nothing pages.
        everything = {field: 3.0 for field in EVERY_STAGE}
        base = synth_samples(91, 3, reference=REFERENCE)
        current = synth_samples(92, 3, scale=everything,
                                reference=3 * REFERENCE)
        diff = compare_reports(
            base,
            current,
            base_fingerprint={"platform": "machine-A", "cpu_count": 8},
            current_fingerprint={"platform": "machine-B", "cpu_count": 2},
        )
        assert diff.calibration["applied"]
        assert diff.calibration["factor"] == pytest.approx(3.0)
        assert diff.calibration["base_reference_seconds"] == REFERENCE
        assert diff.calibration["current_reference_seconds"] == 3 * REFERENCE
        assert diff.exit_code == 0
        assert "calibration: ×3.000" in diff.render()

    def test_single_stage_slowdown_survives_calibration(self):
        base = synth_samples(93, 3, reference=REFERENCE)
        current = synth_samples(94, 3, scale={"translate_seconds": 2.5},
                                reference=REFERENCE)
        diff = compare_reports(
            base,
            current,
            base_fingerprint={"platform": "machine-A"},
            current_fingerprint={"platform": "machine-B"},
        )
        assert diff.calibration["applied"]
        assert diff.calibration["factor"] == pytest.approx(1.0)
        assert diff.exit_code == 1
        assert diff.guilty_stages[0] == "translate"

    def test_dominant_stage_slowdown_is_not_calibrated_away(self):
        # Check is most of every file's time, and of the stage sums only
        # check and the total clear the floor.  A factor taken from the
        # stages themselves would be check's own 2.5× and hide it; the
        # host references say the machines run alike.
        shape = {"translate_seconds": 0.02, "generate_seconds": 0.02,
                 "analyze_seconds": 0.02, "check_seconds": 0.1}
        slow = dict(shape, check_seconds=0.25)
        base = synth_samples(95, 3, scale=shape, reference=REFERENCE)
        current = synth_samples(96, 3, scale=slow, reference=REFERENCE)
        diff = compare_reports(
            base,
            current,
            base_fingerprint={"platform": "machine-A", "cpu_count": 1},
            current_fingerprint={"platform": "machine-B", "cpu_count": 2},
        )
        assert diff.calibration["factor"] == pytest.approx(1.0)
        assert diff.exit_code == 1
        assert diff.guilty_stages == ["check"]

    def test_report_without_reference_diffs_with_factor_one(self):
        # A history recorded before references existed: raw ratios.
        everything = {field: 3.0 for field in EVERY_STAGE}
        for base_ref, current_ref in ((None, None), (REFERENCE, None),
                                      (None, REFERENCE)):
            diff = compare_reports(
                synth_samples(97, 2, reference=base_ref),
                synth_samples(98, 2, scale=everything, reference=current_ref),
            )
            assert diff.calibration == {
                "applied": False,
                "factor": 1.0,
                "base_reference_seconds": base_ref,
                "current_reference_seconds": current_ref,
            }
            assert diff.exit_code == 1  # the raw 3× pages uncalibrated
            assert "calibration: none" in diff.render()

    def test_factor_divides_every_ratio_and_interval(self):
        # The current host runs its reference loop at half speed: every
        # stage's ratio and CI are halved, so only the 4× translate pages.
        base = synth_samples(99, 3, reference=REFERENCE)
        current = synth_samples(100, 3, scale={"translate_seconds": 4.0},
                                reference=2 * REFERENCE)
        diff = compare_reports(base, current)
        assert diff.calibration["factor"] == pytest.approx(2.0)
        for stage, fld in STAGE_FIELDS:
            delta = diff.stages[stage]
            raw = bootstrap_ratio_ci(
                _sums(base, fld), _sums(current, fld),
                resamples=BOOTSTRAP, confidence=CONFIDENCE, seed=SEED,
            )
            assert delta.calibrated_ratio == pytest.approx(delta.ratio / 2)
            assert (delta.ci_low, delta.ci_high) == pytest.approx(
                (raw[0] / 2, raw[1] / 2)
            )
        assert diff.guilty_stages == ["translate"]


#: Six files shaped like the CI gate's Viper subset: every stage of every
#: file is under MIN_SECONDS, even with check doubled, but check summed
#: over the six files is above it.
SIX = ("f0", "f1", "f2", "f3", "f4", "f5")
SUB_FLOOR = {field: 0.025 for field in EVERY_STAGE}


class TestStageSums:
    def test_doubled_check_pages_when_only_its_sum_clears_the_floor(self):
        doubled = dict(SUB_FLOOR, check_seconds=2 * SUB_FLOOR["check_seconds"])
        base = synth_samples(101, 3, files=SIX, scale=SUB_FLOOR)
        current = synth_samples(102, 3, files=SIX, scale=doubled)
        rows = file_records(base + current).values()
        assert all(
            row[field] < MIN_SECONDS
            for samples in rows
            for row in samples
            for field in EVERY_STAGE + ("total_seconds",)
        )
        diff = compare_reports(base, current)
        assert diff.stages["check"].base_median > MIN_SECONDS
        assert diff.exit_code == 1
        assert diff.guilty_stages == ["check"]
        assert diff.to_dict()["regressions"] == [{"guilty_stages": ["check"]}]

    def test_a_file_missing_from_one_sample_is_summed_on_neither_side(self):
        base = synth_samples(103, 3)
        current = synth_samples(104, 3)
        # c slows down tenfold in the current samples but is missing from
        # one of them: summed anywhere, its check would page.
        for report in current:
            for row in report["suites"]["Viper"]["files"]:
                if row["name"] == "c":
                    row["check_seconds"] *= 10
                    row["total_seconds"] *= 10
        files = current[1]["suites"]["Viper"]["files"]
        files[:] = [row for row in files if row["name"] != "c"]
        diff = compare_reports(base, current)
        assert diff.files == ["Viper/a", "Viper/b"]
        assert diff.missing_in_current == ["Viper/c"]
        assert diff.missing_in_base == []
        assert diff.stages["check"].base_median == pytest.approx(
            statistics.median(
                sum(row["check_seconds"] for row in report["suites"]["Viper"]["files"]
                    if row["name"] != "c")
                for report in base
            )
        )
        assert diff.exit_code == 0
        assert "Viper/c: missing from a current sample" in diff.render()

    def test_one_comparison_per_stage(self):
        base = synth_samples(105, 3)
        current = synth_samples(106, 4)
        diff = compare_reports(base, current)
        assert tuple(diff.stages) == STAGES
        assert diff.files == ["Viper/a", "Viper/b", "Viper/c"]
        assert diff.compared_stages == len(STAGES)
        for delta in diff.stages.values():
            assert (delta.base_samples, delta.current_samples) == (3, 4)

    def test_every_stage_median_is_the_median_of_the_per_sample_sums(self):
        base = synth_samples(107, 3)
        current = synth_samples(108, 5)
        diff = compare_reports(base, current)
        for stage, fld in STAGE_FIELDS:
            delta = diff.stages[stage]
            base_median = statistics.median(_sums(base, fld))
            current_median = statistics.median(_sums(current, fld))
            assert delta.base_median == pytest.approx(base_median)
            assert delta.current_median == pytest.approx(current_median)
            assert delta.ratio == pytest.approx(current_median / base_median)

    def test_a_file_missing_from_a_baseline_sample_is_summed_on_neither_side(self):
        base = synth_samples(109, 3)
        current = synth_samples(110, 3)
        _rows(base[2])[:] = [row for row in _rows(base[2]) if row["name"] != "b"]
        diff = compare_reports(base, current)
        assert diff.files == ["Viper/a", "Viper/c"]
        assert diff.missing_in_base == ["Viper/b"]
        assert diff.missing_in_current == []
        assert diff.stages["check"].current_median == pytest.approx(
            statistics.median(
                sum(row["check_seconds"] for row in _rows(report)
                    if row["name"] != "b")
                for report in current
            )
        )
        assert "Viper/b: missing from a baseline sample" in diff.render()

    def test_a_stage_timed_on_one_side_only_is_not_compared(self):
        # A history recorded before analyze was timed has no number for it.
        base = synth_samples(111, 3)
        for report in base:
            for row in _rows(report):
                del row["analyze_seconds"]
        diff = compare_reports(base, synth_samples(112, 3))
        assert tuple(diff.stages) == ("translate", "generate", "check", "total")
        assert diff.exit_code == 0

    def test_a_row_without_a_stage_number_drops_that_sample_only(self):
        base = synth_samples(113, 3)
        current = synth_samples(114, 3)
        _rows(current[0])[0]["check_seconds"] = None
        diff = compare_reports(base, current)
        assert diff.stages["check"].current_samples == 2
        assert diff.stages["check"].current_median == pytest.approx(
            statistics.median(_sums(current[1:], "check_seconds"))
        )
        assert diff.stages["translate"].current_samples == 3


class TestReportDocument:
    def test_json_document_carries_the_keys_ci_reads(self):
        diff = _diff(base_seed=115, current_seed=116)
        payload = json.loads(json.dumps(diff.to_dict()))
        assert payload["schema"] == 2
        assert payload["exit_code"] == 0
        assert payload["ok"] is True
        assert payload["regressions"] == []
        assert set(payload["calibration"]) == {
            "applied", "factor", "base_reference_seconds",
            "current_reference_seconds",
        }
        assert payload["files"] == ["Viper/a", "Viper/b", "Viper/c"]
        assert payload["compared_stages"] == len(STAGES)
        assert payload["base"]["samples"] == payload["current"]["samples"] == 3
        check = payload["stages"]["check"]
        assert check["stage"] == "check"
        assert check["delta_seconds"] == pytest.approx(
            check["current_median"] - check["base_median"]
        )
        assert {"ratio", "calibrated_ratio", "ci_low", "ci_high", "regressed",
                "skipped", "base_samples", "current_samples"} <= set(check)

    def test_render_has_one_row_per_stage(self):
        diff = _diff(base_seed=117, current_seed=118)
        lines = diff.render().splitlines()
        assert "each stage summed over the 3 file(s) every sample measured" in lines
        for stage in STAGES:
            rows = [line for line in lines if line.startswith(f"{stage} ")]
            assert len(rows) == 1 and rows[0].endswith("  ok")
        assert lines[-1] == (
            "no regressions: 5 stage comparisons, all CIs below the ×1.50 floor"
        )


class TestFileRecords:
    def test_collects_rows_per_file_across_reports(self):
        reports = synth_samples(99, 4)
        rows = file_records(reports)
        assert set(rows) == {("Viper", "a"), ("Viper", "b"), ("Viper", "c")}
        assert all(len(samples) == 4 for samples in rows.values())

    def test_reports_without_suites_and_other_suites_contribute_nothing(self):
        reports = synth_samples(119, 2) + [{"meta": {}}, {"suites": None}]
        rows = file_records(reports)
        assert set(rows) == {("Viper", "a"), ("Viper", "b"), ("Viper", "c")}
        assert all(len(samples) == 2 for samples in rows.values())
        assert file_records(reports, suite="Gobra") == {}
