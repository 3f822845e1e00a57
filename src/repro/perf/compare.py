"""The statistical comparator behind ``repro bench diff``.

Trust: **advisory** — a wrong comparison pages an operator or fails a CI
gate; it never reaches a verdict path (docs/TRUSTED_BASE.md).

Timings jitter.  A single slow sample on a cold CI runner must not page,
and a real 2× stage slowdown must.  The comparator therefore works on
*distributions*, not points:

* every history record of the baseline (and every ``--samples`` re-run
  of the current tree) contributes one sample per ``(file, stage)``;
* the test statistic is the **ratio of medians** current/baseline, with
  a seeded **bootstrap confidence interval** (resample both sides,
  recompute the ratio, take the central quantiles) — deterministic for
  a fixed input, so repeated CI invocations agree;
* a ``(file, stage)`` pair regresses only when the *lower* CI bound
  clears ``1 + NOISE_FLOOR`` — the whole interval must sit above the
  floor, so one jittery sample cannot page;
* pairs where both medians sit under ``MIN_SECONDS`` are skipped:
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

import hashlib
import random
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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
#: Pairs where both medians are under this are skipped as noise.
MIN_SECONDS = 0.005
#: Bootstrap resamples per (file, stage) pair.
BOOTSTRAP = 400
#: Central CI mass (0.95 → the 2.5%/97.5% quantiles).
CONFIDENCE = 0.95
#: Root seed of the deterministic bootstrap.
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


def _stage_samples(rows: Sequence[Mapping[str, object]]) -> Dict[str, List[float]]:
    samples: Dict[str, List[float]] = {stage: [] for stage, _ in STAGE_FIELDS}
    for row in rows:
        for stage, fld in STAGE_FIELDS:
            value = row.get(fld)
            if isinstance(value, (int, float)):
                samples[stage].append(float(value))
    return samples


def _pair_seed(root: int, suite: str, name: str, stage: str) -> int:
    """A stable per-pair bootstrap seed (never the process hash seed)."""
    digest = hashlib.sha256(f"{root}|{suite}|{name}|{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


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
    """One (file, stage) comparison."""

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
class FileDiff:
    """All stage comparisons for one corpus file."""

    suite: str
    name: str
    stages: Dict[str, StageDelta]

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

    def to_dict(self) -> Dict[str, object]:
        return {
            "suite": self.suite,
            "name": self.name,
            "regressed": self.regressed,
            "guilty_stages": self.guilty_stages,
            "stages": {stage: d.to_dict() for stage, d in self.stages.items()},
        }


@dataclass
class DiffReport:
    """The complete result of one ``repro bench diff``."""

    files: List[FileDiff]
    calibration: Dict[str, object]
    missing_in_current: List[str] = field(default_factory=list)
    missing_in_base: List[str] = field(default_factory=list)
    base_info: Dict[str, object] = field(default_factory=dict)
    current_info: Dict[str, object] = field(default_factory=dict)
    #: Attribution payloads attached by the CLI (one per regressed file).
    attributions: List[Dict[str, object]] = field(default_factory=list)

    @property
    def regressions(self) -> List[FileDiff]:
        return [f for f in self.files if f.regressed]

    @property
    def compared_pairs(self) -> int:
        return sum(
            1 for f in self.files for d in f.stages.values() if not d.skipped
        )

    @property
    def ok(self) -> bool:
        return not self.regressions and self.compared_pairs > 0

    @property
    def exit_code(self) -> int:
        """0 = clean, 1 = regression(s), 2 = nothing was comparable."""
        if self.compared_pairs == 0:
            return 2
        return 1 if self.regressions else 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": 1,
            "ok": self.ok,
            "exit_code": self.exit_code,
            "calibration": dict(self.calibration),
            "base": dict(self.base_info),
            "current": dict(self.current_info),
            "compared_pairs": self.compared_pairs,
            "files": [f.to_dict() for f in self.files],
            "regressions": [
                {
                    "suite": f.suite,
                    "name": f.name,
                    "guilty_stages": f.guilty_stages,
                }
                for f in self.regressions
            ],
            "missing_in_current": list(self.missing_in_current),
            "missing_in_base": list(self.missing_in_base),
            "attribution": list(self.attributions),
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
        header = (
            f"{'file':<28} {'stage':<10} {'base ms':>10} {'curr ms':>10} "
            f"{'ratio':>7} {'ci':>15}  verdict"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for file_diff in self.files:
            for delta in file_diff.stages.values():
                if delta.skipped:
                    continue
                verdict = "REGRESSED" if delta.regressed else "ok"
                ci = f"[{delta.ci_low:.2f}, {delta.ci_high:.2f}]"
                lines.append(
                    f"{file_diff.suite + '/' + file_diff.name:<28} "
                    f"{delta.stage:<10} {delta.base_median * 1000:>10.3f} "
                    f"{delta.current_median * 1000:>10.3f} "
                    f"{delta.calibrated_ratio:>7.2f} {ci:>15}  {verdict}"
                )
        for name in self.missing_in_current:
            lines.append(f"{name}: in baseline only (not compared)")
        for name in self.missing_in_base:
            lines.append(f"{name}: new since baseline (not compared)")
        lines.append("")
        if self.compared_pairs == 0:
            lines.append("nothing comparable: no (file, stage) pair passed the filters")
        elif self.regressions:
            for file_diff in self.regressions:
                guilty = ", ".join(file_diff.guilty_stages) or "total"
                lines.append(
                    f"REGRESSION {file_diff.suite}/{file_diff.name}: "
                    f"stage(s) {guilty}"
                )
        else:
            floor = 1.0 + NOISE_FLOOR
            lines.append(
                f"no regressions: {self.compared_pairs} stage comparisons, "
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


def compare_reports(
    base_reports: Sequence[Mapping[str, object]],
    current_reports: Sequence[Mapping[str, object]],
    *,
    suite: Optional[str] = None,
    base_fingerprint: Optional[Mapping[str, object]] = None,
    current_fingerprint: Optional[Mapping[str, object]] = None,
) -> DiffReport:
    """Compare two sample sets of bench reports, file by file, stage by stage."""
    base_rows = file_records(base_reports, suite=suite)
    current_rows = file_records(current_reports, suite=suite)
    shared = sorted(set(base_rows) & set(current_rows))
    missing_in_current = sorted(
        f"{s}/{n}" for s, n in set(base_rows) - set(current_rows)
    )
    missing_in_base = sorted(
        f"{s}/{n}" for s, n in set(current_rows) - set(base_rows)
    )
    cal = _calibration(base_reports, current_reports)
    factor = cal["factor"]

    files: List[FileDiff] = []
    for key in shared:
        suite_name, name = key
        base_samples = _stage_samples(base_rows[key])
        current_samples = _stage_samples(current_rows[key])
        deltas: Dict[str, StageDelta] = {}
        for stage, _ in STAGE_FIELDS:
            b, c = base_samples[stage], current_samples[stage]
            if not b or not c:
                continue
            base_med, cur_med = statistics.median(b), statistics.median(c)
            skipped = max(base_med, cur_med) < MIN_SECONDS
            ratio = cur_med / base_med if base_med > 0 else float("inf")
            ci_low, ci_high = bootstrap_ratio_ci(
                b,
                c,
                resamples=BOOTSTRAP,
                confidence=CONFIDENCE,
                seed=_pair_seed(SEED, suite_name, name, stage),
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
        files.append(FileDiff(suite=suite_name, name=name, stages=deltas))

    return DiffReport(
        files=files,
        calibration=cal,
        missing_in_current=missing_in_current,
        missing_in_base=missing_in_base,
        base_info={"fingerprint": dict(base_fingerprint or {}),
                   "samples": len(base_reports)},
        current_info={"fingerprint": dict(current_fingerprint or {}),
                      "samples": len(current_reports)},
    )
