"""Per-stage instrumentation: timings, artifact sizes, counters, observers.

The paper's evaluation (Tab. 1–6) — like its predecessor on validating
Boogie's VC generation (CAV 2021) — reports *per-stage* costs: translation
time, certificate generation time, and the independent check time, next to
artifact sizes (Viper LoC, Boogie LoC, certificate LoC).  This module makes
those measurements first-class: every pipeline stage runs under a
:class:`PipelineInstrumentation` that records a :class:`StageRecord` per
execution, maintains counters (cache hits/misses, skipped stages), and
notifies registered observers.  The whole record set exports as JSON for
the ``BENCH_*.json`` performance trajectory.

``FileMetrics`` in :mod:`repro.harness.runner` is *derived* from these
records instead of sprinkling ``perf_counter`` calls through the harness,
and so are the per-request trace spans of :mod:`repro.trace` — records
carry monotonic start offsets plus a wall-clock anchor so one timing
source feeds both the paper tables and the trace exporters.

Two timing fields per record keep the accounting honest: ``seconds`` is
the stage's own work, and ``cache_lookup_seconds`` is wall-time spent
probing caches while the stage ran (per-unit key lookups, disk-envelope
loads).  Earlier versions folded lookups into ``seconds``, so a
fully-warm run reported pure lookup time as translate "work"; the split
makes ``bench --json`` per-stage numbers and trace spans agree.

Trust: **advisory** — instrumentation observes the pipeline; nothing in
the trusted reparse+check path reads it (docs/TRUSTED_BASE.md).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional


@dataclass
class StageRecord:
    """One execution (or skip) of one pipeline stage.

    ``seconds`` is the stage's own work; ``cache_lookup_seconds`` is the
    wall-time spent probing caches during the stage (kept separate so a
    warm run does not report lookup latency as stage work).  ``started``
    is a ``perf_counter`` offset convertible to wall-clock through the
    owning instrumentation's :meth:`PipelineInstrumentation.to_unix`.
    """

    stage: str
    seconds: float = 0.0
    skipped: bool = False
    cached: bool = False
    #: Artifact sizes attributed to this stage (e.g. ``boogie_loc``).
    artifacts: Dict[str, int] = field(default_factory=dict)
    #: Wall-time spent in cache probes while this stage ran.
    cache_lookup_seconds: float = 0.0
    #: ``perf_counter`` at stage start (None for synthesised records).
    started: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {"stage": self.stage, "seconds": self.seconds}
        if self.skipped:
            record["skipped"] = True
        if self.cached:
            record["cached"] = True
        if self.artifacts:
            record["artifacts"] = dict(self.artifacts)
        if self.cache_lookup_seconds:
            record["cache_lookup_seconds"] = self.cache_lookup_seconds
        return record


@dataclass
class UnitRecord:
    """One method unit's outcome in one untrusted stage.

    ``reused`` units were served from the cache (``tier`` says which
    tier); rebuilt units carry the wall-time their stage actually spent.
    The trusted reparse/check stages never produce unit records — they
    run fresh per method on every invocation and are accounted as whole
    stages.
    """

    method: str
    stage: str
    seconds: float = 0.0
    reused: bool = False
    #: Which cache tier served a reused unit ("memory"/"disk"); "fresh"
    #: for rebuilt units.
    tier: str = "fresh"
    #: ``perf_counter`` when the unit's work began.  Recorded as
    #: ``now - seconds`` at record time, which is exact for serial unit
    #: execution and an honest approximation under ``--unit-jobs``
    #: fan-out (child processes report only their own duration).
    started: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "method": self.method,
            "stage": self.stage,
            "seconds": self.seconds,
        }
        if self.reused:
            record["reused"] = True
            record["tier"] = self.tier
        return record


#: An observer receives each StageRecord as it is finalised.
Observer = Callable[[StageRecord], None]


class _StageTimer:
    """What :meth:`PipelineInstrumentation.stage` returns: a class, not a
    generator, because every pipeline run enters ten of them."""

    __slots__ = ("_inst", "_record")

    def __init__(self, inst: "PipelineInstrumentation", record: StageRecord) -> None:
        self._inst, self._record = inst, record

    def __enter__(self) -> StageRecord:
        record = self._record
        self._inst._active.append(record)
        record.started = time.perf_counter()
        return record

    def __exit__(self, *exc_info) -> None:
        record, inst = self._record, self._inst
        elapsed = time.perf_counter() - record.started
        inst._active.pop()
        # Stage work excludes cache-probe wall-time: lookups made during
        # the stage accrue to cache_lookup_seconds instead, so a warm run
        # does not report lookup latency as stage work.
        record.seconds = max(0.0, elapsed - record.cache_lookup_seconds)
        inst._finalise(record)
        inst.increment(f"stage.{record.stage}.runs")


class PipelineInstrumentation:
    """Collects stage records, counters, and artifact sizes for one run.

    The object is cheap; create one per pipeline invocation (the harness
    creates one per corpus file).  Observers registered via
    :meth:`add_observer` are called synchronously after every stage.
    """

    def __init__(self) -> None:
        self.records: List[StageRecord] = []
        self.unit_records: List[UnitRecord] = []
        self.counters: Dict[str, int] = {}
        self._observers: List[Observer] = []
        # Wall-clock anchor: pairs one time.time() reading with one
        # perf_counter() reading so monotonic start offsets convert to
        # epoch seconds (to_unix) — cross-process trace alignment needs
        # a shared clock, and perf_counter epochs differ per process.
        self._epoch_unix = time.time()
        self._epoch_perf = time.perf_counter()
        # Stack of records for stages currently executing, so nested
        # cache probes attribute their wall-time to the right stage.
        self._active: List[StageRecord] = []

    # -- recording ---------------------------------------------------------

    def stage(self, name: str) -> _StageTimer:
        """Time one stage execution; use as ``with inst.stage('translate'):``."""
        return _StageTimer(self, StageRecord(stage=name))

    def record_skip(self, name: str, cached: bool = False) -> StageRecord:
        """Record that a stage was skipped (e.g. served from the cache)."""
        record = StageRecord(
            stage=name, skipped=True, cached=cached, started=time.perf_counter()
        )
        self._finalise(record)
        self.increment(f"stage.{name}.skipped")
        return record

    @contextmanager
    def cache_lookup(self) -> Iterator[None]:
        """Time a cache probe, attributing it to the enclosing stage.

        Outside any stage (e.g. the service worker's disk-envelope loads
        that run before the first stage), the time lands on a synthetic
        ``cache_lookup`` record so it still shows up in totals and traces.
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record_cache_lookup(time.perf_counter() - start, started=start)

    def record_cache_lookup(
        self, seconds: float, started: Optional[float] = None
    ) -> None:
        """Attribute cache-probe wall-time (see :meth:`cache_lookup`)."""
        if self._active:
            self._active[-1].cache_lookup_seconds += seconds
        else:
            record = StageRecord(
                stage="cache_lookup",
                skipped=True,
                cache_lookup_seconds=seconds,
                started=started if started is not None else time.perf_counter(),
            )
            self._finalise(record)
        self.increment("cache_lookup.probes")

    def record_unit(
        self,
        method: str,
        stage: str,
        seconds: float = 0.0,
        reused: bool = False,
        tier: str = "fresh",
    ) -> UnitRecord:
        """Record one method unit's outcome in one untrusted stage."""
        record = UnitRecord(
            method=method, stage=stage, seconds=seconds, reused=reused, tier=tier,
            started=time.perf_counter() - seconds,
        )
        self.unit_records.append(record)
        self.increment(f"unit.{stage}.{'reused' if reused else 'rebuilt'}")
        return record

    def artifact(self, stage: str, name: str, value: int) -> None:
        """Attach an artifact size to the most recent record of ``stage``."""
        for record in reversed(self.records):
            if record.stage == stage:
                record.artifacts[name] = value
                return
        # No record yet (artifact measured outside a stage): synthesise one.
        record = StageRecord(stage=stage, skipped=True)
        record.artifacts[name] = value
        self.records.append(record)

    def increment(self, counter: str, amount: int = 1) -> int:
        """Bump a named counter and return its new value."""
        value = self.counters.get(counter, 0) + amount
        self.counters[counter] = value
        return value

    def add_observer(self, observer: Observer) -> None:
        self._observers.append(observer)

    def _finalise(self, record: StageRecord) -> None:
        self.records.append(record)
        for observer in self._observers:
            observer(record)

    # -- queries -----------------------------------------------------------

    def stage_seconds(self, *names: str) -> float:
        """Total wall-time spent in the named stage(s) (0.0 if never run)."""
        wanted = set(names)
        return sum(r.seconds for r in self.records if r.stage in wanted)

    def stage_ran(self, name: str) -> bool:
        """Whether the stage actually executed (not just skipped)."""
        return self.counters.get(f"stage.{name}.runs", 0) > 0

    def stage_skipped(self, name: str) -> bool:
        return self.counters.get(f"stage.{name}.skipped", 0) > 0

    def artifact_sizes(self) -> Dict[str, int]:
        """All recorded artifact sizes, flattened (later stages win ties)."""
        sizes: Dict[str, int] = {}
        for record in self.records:
            sizes.update(record.artifacts)
        return sizes

    def total_seconds(self) -> float:
        """Wall-clock across all stages, cache probes included."""
        return sum(r.seconds + r.cache_lookup_seconds for r in self.records)

    def cache_lookup_seconds(self, *names: str) -> float:
        """Cache-probe wall-time, optionally restricted to named stages."""
        wanted = set(names)
        return sum(
            r.cache_lookup_seconds
            for r in self.records
            if not wanted or r.stage in wanted
        )

    def to_unix(self, perf_time: float) -> float:
        """Convert a ``perf_counter`` offset to epoch seconds."""
        return self._epoch_unix + (perf_time - self._epoch_perf)

    def unit_cache_summary(self) -> Dict[str, object]:
        """Per-method reuse accounting across the untrusted stages.

        A method counts as *reused* only when every recorded untrusted
        stage served it from the cache; one fresh stage makes it
        *rebuilt*.  This is the summary the CLI prints, ``bench --json``
        embeds, and the CI incremental-smoke job asserts on.
        """
        per_method: Dict[str, Dict[str, object]] = {}
        for record in self.unit_records:
            entry = per_method.setdefault(
                record.method, {"stages": {}, "reused": True, "tier": record.tier}
            )
            entry["stages"][record.stage] = {
                "seconds": record.seconds,
                "reused": record.reused,
                "tier": record.tier,
            }
            if not record.reused:
                entry["reused"] = False
                entry["tier"] = "fresh"
        reused = sorted(m for m, e in per_method.items() if e["reused"])
        rebuilt = sorted(m for m, e in per_method.items() if not e["reused"])
        tiers: Dict[str, int] = {}
        for entry in per_method.values():
            tiers[entry["tier"]] = tiers.get(entry["tier"], 0) + 1
        return {
            "reused": len(reused),
            "rebuilt": len(rebuilt),
            "reused_methods": reused,
            "rebuilt_methods": rebuilt,
            "tiers": tiers,
            "methods": per_method,
        }

    # -- export ------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "stages": [r.to_dict() for r in self.records],
            "counters": dict(sorted(self.counters.items())),
            "artifacts": self.artifact_sizes(),
            "total_seconds": self.total_seconds(),
            "cache_lookup_seconds": self.cache_lookup_seconds(),
        }
        if self.unit_records:
            payload["units"] = [r.to_dict() for r in self.unit_records]
            payload["unit_cache"] = self.unit_cache_summary()
        return payload

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)
