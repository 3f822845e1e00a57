"""The statistical comparator behind ``repro bench diff``.

Trust: **advisory** — a wrong comparison pages an operator or fails a CI
gate; it never reaches a verdict path (docs/TRUSTED_BASE.md).

Timings jitter.  A single slow sample on a cold CI runner must not page,
and a real 2× stage slowdown must.  The comparator therefore works on
*distributions*, not points:

* each stage is compared once, over the whole file subset: every history
  record of the baseline (and every ``--samples`` re-run of the current
  tree) contributes one sample per stage, that stage's seconds summed
  over the files *every* sample of both sides measured.  A file missing
  from any sample is listed as not compared, never summed on one side
  only.  A sum clears the noise quantum where most single files do not,
  so a stage slowdown spread over the subset is seen as that stage;
* the test statistic is the **ratio of medians** current/baseline, with
  a seeded **bootstrap confidence interval** (resample both sides,
  recompute the ratio, take the central quantiles) — deterministic for
  a fixed input, so repeated CI invocations agree;
* a stage regresses only when the *lower* CI bound clears
  ``1 + NOISE_FLOOR`` — the whole interval must sit above the floor, so
  one jittery sample cannot page;
* stages where both medians sit under ``MIN_SECONDS`` are skipped:
  sub-noise-quantum timings carry no signal;
* every ratio is **calibrated** by the host, not by the measurement:
  each report's ``meta`` carries the median time of a fixed reference
  loop sampled while it ran (:mod:`repro.perf.history`), and the ratios
  are divided by current reference / base reference.  A slower machine
  moves the loop and the stages alike; a slower stage moves only the
  stage, however much of the run it makes up.  Reports without a
  reference are compared with factor 1.0.

The exit-code contract mirrors ``repro lint`` / ``repro tcb check``:
0 = no regression, 1 = regression(s), 2 = nothing comparable.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .history import HOST_REFERENCE_KEY

#: The per-file stages the comparator sees, mapped onto the
#: ``FileMetrics`` fields of one ``bench --json`` file row.  ``generate``
#: covers generate+render and ``check`` covers reparse+check, exactly as
#: the paper's tables aggregate them.
STAGE_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("translate", "translate_seconds"),
    ("generate", "generate_seconds"),
    ("check", "check_seconds"),
    ("analyze", "analyze_seconds"),
    ("total", "total_seconds"),
)

#: A file is addressed as (suite, name) across reports.
FileKey = Tuple[str, str]


#: A stage pages only when its whole CI sits above ``1 + NOISE_FLOOR``
#: (a calibrated median ratio provably above 1.5×).
NOISE_FLOOR = 0.5
#: Stages where both medians are under this are skipped as noise.
MIN_SECONDS = 0.005
#: Bootstrap resamples per stage.
BOOTSTRAP = 400
#: Central CI mass (0.95 → the 2.5%/97.5% quantiles).
CONFIDENCE = 0.95
#: Seed of the deterministic bootstrap.
SEED = 0


def file_records(
    reports: Sequence[Mapping[str, object]], suite: Optional[str] = None
) -> Dict[FileKey, List[Dict[str, object]]]:
    """Per-file rows across several bench reports (one list entry per
    report that contains the file), optionally restricted to one suite."""
    out: Dict[FileKey, List[Dict[str, object]]] = {}
    for report in reports:
        suites = report.get("suites")
        if not isinstance(suites, dict):
            continue
        for suite_name, payload in suites.items():
            if suite is not None and suite_name != suite:
                continue
            for row in (payload or {}).get("files", []):
                key = (str(suite_name), str(row.get("name", "")))
                out.setdefault(key, []).append(dict(row))
    return out


def _stage_sums(
    rows_per_report: Sequence[Mapping[FileKey, List[Dict[str, object]]]],
    keys: Sequence[FileKey],
) -> Dict[str, List[float]]:
    """Per stage, one sample per report: its seconds summed over ``keys``.

    A report whose row for one of ``keys`` has no number for a stage
    contributes no sample of that stage.
    """
    sums: Dict[str, List[float]] = {stage: [] for stage, _ in STAGE_FIELDS}
    for rows in rows_per_report:
        for stage, fld in STAGE_FIELDS:
            values = [rows[key][0].get(fld) for key in keys]
            if all(isinstance(v, (int, float)) for v in values):
                sums[stage].append(float(sum(values)))
    return sums


def bootstrap_ratio_ci(
    base: Sequence[float],
    current: Sequence[float],
    *,
    resamples: int = 400,
    confidence: float = 0.95,
    seed: int = 0,
) -> Tuple[float, float]:
    """A seeded bootstrap CI on ``median(current)/median(base)``.

    With one sample per side the interval degenerates to the point
    ratio, which is exactly the honest answer: no spread was observed.
    """
    base = [max(b, 0.0) for b in base]
    current = [max(c, 0.0) for c in current]
    if not base or not current:
        return (float("inf"), float("inf"))

    def ratio(b: Sequence[float], c: Sequence[float]) -> float:
        mb = statistics.median(b)
        mc = statistics.median(c)
        return mc / mb if mb > 0 else float("inf")

    if len(base) == 1 and len(current) == 1:
        point = ratio(base, current)
        return (point, point)
    rng = random.Random(seed)
    ratios = sorted(
        ratio(rng.choices(base, k=len(base)), rng.choices(current, k=len(current)))
        for _ in range(max(resamples, 1))
    )
    lo_index = int(((1.0 - confidence) / 2.0) * (len(ratios) - 1))
    hi_index = int((1.0 - (1.0 - confidence) / 2.0) * (len(ratios) - 1))
    return (ratios[lo_index], ratios[hi_index])


@dataclass
class StageDelta:
    """One stage's comparison, its seconds summed over the compared files."""

    stage: str
    base_median: float
    current_median: float
    ratio: float
    calibrated_ratio: float
    ci_low: float
    ci_high: float
    regressed: bool
    skipped: bool
    base_samples: int
    current_samples: int

    @property
    def delta_seconds(self) -> float:
        return self.current_median - self.base_median

    def to_dict(self) -> Dict[str, object]:
        return {
            "stage": self.stage,
            "base_median": self.base_median,
            "current_median": self.current_median,
            "ratio": self.ratio,
            "calibrated_ratio": self.calibrated_ratio,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "regressed": self.regressed,
            "skipped": self.skipped,
            "delta_seconds": self.delta_seconds,
            "base_samples": self.base_samples,
            "current_samples": self.current_samples,
        }


@dataclass
class DiffReport:
    """The complete result of one ``repro bench diff``."""

    #: One comparison per stage, over the sums of ``files``.
    stages: Dict[str, StageDelta]
    #: ``suite/name`` of the files every sample of both sides measured.
    files: List[str]
    calibration: Dict[str, object]
    #: Files missing from some current (resp. baseline) sample.
    missing_in_current: List[str] = field(default_factory=list)
    missing_in_base: List[str] = field(default_factory=list)
    base_info: Dict[str, object] = field(default_factory=dict)
    current_info: Dict[str, object] = field(default_factory=dict)

    @property
    def regressed(self) -> bool:
        return any(d.regressed for d in self.stages.values())

    @property
    def guilty_stages(self) -> List[str]:
        """The stage(s) to blame, most seconds lost first.

        ``total`` is only named when no specific stage cleared the floor
        (a diffuse slowdown spread across stages).
        """
        guilty = [
            d for d in self.stages.values() if d.regressed and d.stage != "total"
        ]
        if not guilty:
            guilty = [d for d in self.stages.values() if d.regressed]
        return [d.stage for d in sorted(guilty, key=lambda d: -d.delta_seconds)]

    @property
    def compared_stages(self) -> int:
        return sum(1 for d in self.stages.values() if not d.skipped)

    @property
    def ok(self) -> bool:
        return not self.regressed and self.compared_stages > 0

    @property
    def exit_code(self) -> int:
        """0 = clean, 1 = regression(s), 2 = nothing was comparable."""
        if self.compared_stages == 0:
            return 2
        return 1 if self.regressed else 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": 2,
            "ok": self.ok,
            "exit_code": self.exit_code,
            "calibration": dict(self.calibration),
            "base": dict(self.base_info),
            "current": dict(self.current_info),
            "files": list(self.files),
            "compared_stages": self.compared_stages,
            "stages": {stage: d.to_dict() for stage, d in self.stages.items()},
            "regressions": (
                [{"guilty_stages": self.guilty_stages}] if self.regressed else []
            ),
            "missing_in_current": list(self.missing_in_current),
            "missing_in_base": list(self.missing_in_base),
        }

    def render(self) -> str:
        """The human-readable diff table plus the verdict line."""
        lines: List[str] = []
        cal = self.calibration
        if cal["applied"]:
            lines.append(
                f"calibration: ×{cal['factor']:.3f} (host reference "
                f"{cal['current_reference_seconds'] * 1e6:.0f} µs now, "
                f"{cal['base_reference_seconds'] * 1e6:.0f} µs at the baseline)"
                " — ratios below are divided by it"
            )
        else:
            lines.append("calibration: none (a side has no host reference)")
        lines.append(
            f"each stage summed over the {len(self.files)} file(s) every "
            "sample measured"
        )
        header = (
            f"{'stage':<10} {'base ms':>10} {'curr ms':>10} "
            f"{'ratio':>7} {'ci':>15}  verdict"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for delta in self.stages.values():
            if delta.skipped:
                verdict = f"skipped (under {MIN_SECONDS * 1000:g} ms)"
            else:
                verdict = "REGRESSED" if delta.regressed else "ok"
            ci = f"[{delta.ci_low:.2f}, {delta.ci_high:.2f}]"
            lines.append(
                f"{delta.stage:<10} {delta.base_median * 1000:>10.3f} "
                f"{delta.current_median * 1000:>10.3f} "
                f"{delta.calibrated_ratio:>7.2f} {ci:>15}  {verdict}"
            )
        for name in self.missing_in_current:
            lines.append(f"{name}: missing from a current sample (not compared)")
        for name in self.missing_in_base:
            lines.append(f"{name}: missing from a baseline sample (not compared)")
        lines.append("")
        if self.compared_stages == 0:
            lines.append("nothing comparable: no stage sum passed the filters")
        elif self.regressed:
            lines.append(f"REGRESSION: stage(s) {', '.join(self.guilty_stages)}")
        else:
            floor = 1.0 + NOISE_FLOOR
            lines.append(
                f"no regressions: {self.compared_stages} stage comparisons, "
                f"all CIs below the ×{floor:.2f} floor"
            )
        return "\n".join(lines)


def _host_reference(reports: Sequence[Mapping[str, object]]) -> Optional[float]:
    """The median host-reference seconds of the reports that carry one."""
    values = [
        float(value)
        for value in ((r.get("meta") or {}).get(HOST_REFERENCE_KEY) for r in reports)
        if isinstance(value, (int, float)) and value > 0
    ]
    return statistics.median(values) if values else None


def _calibration(
    base_reports: Sequence[Mapping[str, object]],
    current_reports: Sequence[Mapping[str, object]],
) -> Dict[str, object]:
    """The machine factor: current host reference over the baseline's.

    1.0, with ``applied`` false, when either side has no reference (a
    history recorded before references existed, or a synthetic report).
    """
    base_ref = _host_reference(base_reports)
    current_ref = _host_reference(current_reports)
    applied = base_ref is not None and current_ref is not None
    return {
        "applied": applied,
        "factor": current_ref / base_ref if applied else 1.0,
        "base_reference_seconds": base_ref,
        "current_reference_seconds": current_ref,
    }


def _in_every(rows_per_report: Sequence[Mapping[FileKey, object]]) -> Set[FileKey]:
    """The files present in every report (none when there is no report)."""
    if not rows_per_report:
        return set()
    return set.intersection(*(set(rows) for rows in rows_per_report))


def compare_reports(
    base_reports: Sequence[Mapping[str, object]],
    current_reports: Sequence[Mapping[str, object]],
    *,
    suite: Optional[str] = None,
    base_fingerprint: Optional[Mapping[str, object]] = None,
    current_fingerprint: Optional[Mapping[str, object]] = None,
) -> DiffReport:
    """Compare two sample sets of bench reports, stage by stage, each
    stage's seconds summed over the files every sample measured."""
    base_rows = [file_records([r], suite=suite) for r in base_reports]
    current_rows = [file_records([r], suite=suite) for r in current_reports]
    seen = set().union(*base_rows, *current_rows)
    in_every_base = _in_every(base_rows)
    in_every_current = _in_every(current_rows)
    keys = sorted(in_every_base & in_every_current)
    cal = _calibration(base_reports, current_reports)
    factor = cal["factor"]

    deltas: Dict[str, StageDelta] = {}
    if keys:
        base_sums = _stage_sums(base_rows, keys)
        current_sums = _stage_sums(current_rows, keys)
        for stage, _ in STAGE_FIELDS:
            b, c = base_sums[stage], current_sums[stage]
            if not b or not c:
                continue
            base_med, cur_med = statistics.median(b), statistics.median(c)
            skipped = max(base_med, cur_med) < MIN_SECONDS
            ratio = cur_med / base_med if base_med > 0 else float("inf")
            ci_low, ci_high = bootstrap_ratio_ci(
                b, c, resamples=BOOTSTRAP, confidence=CONFIDENCE, seed=SEED
            )
            cal_low, cal_high = ci_low / factor, ci_high / factor
            deltas[stage] = StageDelta(
                stage=stage,
                base_median=base_med,
                current_median=cur_med,
                ratio=ratio,
                calibrated_ratio=ratio / factor,
                ci_low=cal_low,
                ci_high=cal_high,
                regressed=(not skipped) and cal_low > 1.0 + NOISE_FLOOR,
                skipped=skipped,
                base_samples=len(b),
                current_samples=len(c),
            )

    def names(files: Set[FileKey]) -> List[str]:
        return [f"{s}/{n}" for s, n in sorted(files)]

    return DiffReport(
        stages=deltas,
        files=names(set(keys)),
        calibration=cal,
        missing_in_current=names(seen - in_every_current),
        missing_in_base=names(seen - in_every_base),
        base_info={"fingerprint": dict(base_fingerprint or {}),
                   "samples": len(base_reports)},
        current_info={"fingerprint": dict(current_fingerprint or {}),
                      "samples": len(current_reports)},
    )
