#!/usr/bin/env python3
"""The repository's benchmark: time to verdict, end to end and per layer.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

It certifies with the checkout's own ``src/`` and refuses to run without
it.  ``--trace 0`` measures a number of passes over the workload's inputs
set by ``--seconds`` (about that long at the seed commit) and reports the
end-to-end metrics, scaled to a reference host's speed (``hostspeed``).
``--trace 1`` runs the workload's traced schedule both untraced and
traced, and reports the per-layer metrics.
The last line of standard output is one JSON object with the metrics
BENCHMARK.json names; the lines above it give the same figures, and
those the JSON leaves out, for people.  perfbench/README.md describes
the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import hostspeed
import layers
import service

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The spans of traced runs, and the services' cache directories while
#: they run.
OUT = ROOT / ".bench_out"
BATCH = ("corpus", "large")
SERVICE = ("service-replay", "service-edit")
#: Set-ups per untraced run: this process's own, then fresh interpreters.
SETUP_SAMPLES = 3
#: Seconds a set-up probe may take.
PROBE_TIMEOUT = 120.0
#: Closed-loop client connections of the service workloads (two cores).
CLIENTS = 2
#: Edit rounds made for ``service-edit``.
EDIT_ROUNDS = 4
#: Seconds one pass takes at the seed commit.  A run of ``--seconds S``
#: measures ``round(S / PASS_SECONDS)`` passes, clamped to
#: :data:`PASS_RANGE`: the count depends on ``--seconds`` alone, never on
#: the speed of the code measured, so neither does the operation mix.
PASS_SECONDS = {"corpus": 2.5, "large": 3.5, "service-replay": 3.0, "service-edit": 6.0}
#: (fewest, most) passes of a run.  The services run a fixed number, the
#: fewest that leave ten samples beyond p95: ``service-replay`` its disk
#: pass and three memory passes (288 requests), well under the pool's
#: 500-job recycle; ``service-edit`` its :data:`EDIT_ROUNDS` edit rounds
#: (230 edits).  More would steady their p95 but not fit the time a
#: benchmark run may take on a slow host.
PASS_RANGE = {
    "corpus": (4, 24), "large": (4, 24), "service-replay": (4, 4),
    "service-edit": (EDIT_ROUNDS, EDIT_ROUNDS),
}
#: Passes of the traced run's schedule.
TRACED_PASSES = {"corpus": 1, "large": 2, "service-replay": 2, "service-edit": 1}
#: The largest share of the mean traced operation that may lie outside
#: every named layer (the self times of ``layers.REMAINDERS``).  At the
#: seed commit it is 2-3%; a larger share means a layer is unwrapped.  The
#: limit leaves room for the named layers to get twice as fast.
REMAINDER_LIMIT = 0.1


def process_age() -> float:
    """Seconds since this interpreter started (its kernel start time)."""
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def measured_passes(workload: str, seconds: float) -> int:
    """The passes a ``--trace 0`` run of ``seconds`` measures."""
    fewest, most = PASS_RANGE[workload]
    return min(most, max(fewest, round(seconds / PASS_SECONDS[workload])))


def schedule(passes: Iterable[Sequence], count: int) -> List:
    """The operations of the first ``count`` of ``passes``."""
    return [op for batch in itertools.islice(passes, count) for op in batch]


@dataclass
class Outcome:
    """One operation: a certification and its verdict."""

    program: str
    source: str
    seconds: float
    #: The verdict; None when the operation failed without one.
    accepted: Optional[bool]
    #: Why the operation counts as failed; empty when it does not.
    error: str = ""
    #: Seconds of :func:`hostspeed.reference` right before the operation,
    #: and, in the benchmark's own process, every sample while it ran.
    references: List[float] = field(default_factory=lambda: [hostspeed.REFERENCE_SECONDS])
    tier: str = ""
    #: Whether the whole-file disk tier missed.
    file_miss: bool = False
    reused: int = 0
    rebuilt: int = 0
    #: The spans and counts of a traced operation.
    trace: Optional[dict] = None


@dataclass
class Section:
    """The operations of one measured section and the state it left."""

    outcomes: List[Outcome]
    seconds: float
    peak_rss_kb: int
    retries: int = 0
    throttled: int = 0
    pool: Dict[str, int] = field(default_factory=dict)
    disk_entries: int = 0
    quarantined: int = 0


class Batch:
    """``corpus`` and ``large``: ``repro.pipeline.run_pipeline`` through
    ``check`` in this process, one program at a time, with no cache."""

    def __init__(self, name: str, seed: int) -> None:
        self.name, self.seed = name, seed
        self.recorder: Optional[layers.Recorder] = None
        self._restore = None

    def setup(self, traced: bool) -> None:
        import inputs
        from repro.pipeline import run_pipeline

        self.run_pipeline = run_pipeline
        if self.name == "corpus":
            self.programs = inputs.corpus_programs()
        else:
            self.programs = inputs.large_programs(self.seed)
        self.passes = inputs.passes(self.programs, self.seed, self.name)
        run_pipeline(self.programs[0][1])  # the discarded warm-up
        if traced:
            self.recorder = layers.Recorder()
            self._trace(True)

    def _trace(self, on: bool) -> None:
        """Install the wrappers, or put the originals back."""
        if on and self._restore is None:
            self._restore = layers.install(self.recorder, layers.PIPELINE)
        elif not on and self._restore is not None:
            self._restore()
            self._restore = None

    def run(self, ops: Iterable[Tuple[str, str]]) -> Section:
        started = time.perf_counter()
        outcomes = [
            self._certify(str(index), program, source)
            for index, (program, source) in enumerate(ops)
        ]
        seconds = time.perf_counter() - started
        return Section(outcomes, seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    def run_paired(self, ops: Sequence[Tuple[str, str]]) -> Tuple[Section, Section]:
        """``(untraced, traced)``: every op run untraced and traced back to
        back, the order alternating from op to op, so that both sections
        see the same host speed.  Needs a traced set-up."""
        outcomes: Dict[bool, List[Outcome]] = {False: [], True: []}
        for index, (program, source) in enumerate(ops):
            for traced in (False, True) if index % 2 == 0 else (True, False):
                self._trace(traced)
                outcomes[traced].append(self._certify(str(index), program, source))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return tuple(
            Section(outcomes[traced], sum(o.seconds for o in outcomes[traced]), rss)
            for traced in (False, True)
        )

    def _certify(self, op: str, program: str, source: str) -> Outcome:
        recorder = self.recorder if self._restore is not None else None
        reference = hostspeed.reference()
        if recorder is not None:
            recorder.begin(op)
            root = recorder.open("other")
        with hostspeed.Sampler() as host:
            started = time.perf_counter()
            try:
                accepted, error = self.run_pipeline(source).report.ok, ""
            except Exception as exc:  # a failed operation is counted; the run goes on
                accepted, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - started
        outcome = Outcome(program, source, seconds, accepted, error, [reference] + host.samples)
        if recorder is not None:
            recorder.close(root)
            outcome.trace = recorder.end()
        return outcome

    def teardown(self) -> None:
        self._trace(False)


class Service:
    """``service-replay`` and ``service-edit``: ``POST /v1/certify`` to a
    ``repro serve --jobs 1`` process from :data:`CLIENTS` closed loops."""

    def __init__(self, name: str, seed: int, session: service.Session) -> None:
        self.name, self.seed, self.session = name, seed, session
        self.traced = False

    def setup(self, traced: bool) -> None:
        import inputs

        self.traced = traced
        self.programs = inputs.corpus_programs()
        self.references: Dict[int, float] = {}
        warmup = inputs.warmup_program()
        self.cache = self.session.cache_dir()
        if self.name == "service-replay":
            self.passes = inputs.passes(self.programs, self.seed, self.name)
            # Fill the disk tier from a first server and restart on it:
            # each program's first request in the run is then a disk-tier
            # hit, and later ones are memory hits.
            filler = self.session.start(self.cache, traced=False)
            self._warm(filler, self.programs + [warmup])
            filler.stop()
            self.server = self.session.start(self.cache, traced)
            self._warm(self.server, [warmup, warmup])
        else:
            self.passes = iter(inputs.edit_rounds(self.programs, self.seed, EDIT_ROUNDS))
            self.server = self.session.start(self.cache, traced)
            self._warm(self.server, self.programs + [warmup])
            self._warm(self.server, inputs.edit_rounds([warmup], self.seed, 1)[0])

    def _warm(self, server: service.Server, programs: List[Tuple[str, str]]) -> None:
        loop = service.closed_loop(server.port, iter(programs), lambda op: (op[1], {}), CLIENTS)
        for exchange in loop.exchanges:
            if exchange.status != 200 or exchange.payload.get("ok") is not True:
                raise RuntimeError(
                    f"warm-up of {exchange.op[0]} refused: HTTP {exchange.status} "
                    f"{exchange.payload.get('error', '')}"
                )

    def run(self, ops: Iterable[Tuple[str, str]]) -> Section:
        loop = service.closed_loop(self.server.port, enumerate(ops), self._request, CLIENTS)
        outcomes = [self._outcome(e) for e in sorted(loop.exchanges, key=lambda e: e.sent)]
        self._check_identity(outcomes)
        entries, quarantined = service.disk_counts(self.cache)
        return Section(
            outcomes,
            loop.seconds,
            max(service.peak_rss_kb(pid) for pid in self.server.processes()),
            loop.retries,
            loop.throttled,
            service.health(self.server.port).get("pool", {}),
            entries,
            quarantined,
        )

    def _request(self, op) -> Tuple[str, dict]:
        """An op's source, tagged with its operation id when traced; the
        client thread times the host's speed right before sending it."""
        index, (_, source) = op
        self.references[index] = hostspeed.reference()
        return source, {layers.OP_FIELD: str(index)} if self.traced else {}

    def _outcome(self, exchange: service.Exchange) -> Outcome:
        index, (program, source) = exchange.op
        payload = exchange.payload
        outcome = Outcome(
            program, source, exchange.received - exchange.sent, None,
            references=[self.references[index]],
        )
        if exchange.status != 200:
            outcome.error = f"HTTP {exchange.status}: {payload.get('error', '')}"
            return outcome
        outcome.accepted = payload.get("ok") is True
        outcome.tier = payload.get("cache", "")
        outcome.file_miss = payload.get("counters", {}).get("cache.disk.miss", 0) > 0
        units = payload.get("unit_cache") or {}
        outcome.reused, outcome.rebuilt = units.get("reused", 0), units.get("rebuilt", 0)
        if self.traced:
            worker = payload[layers.WORKER_FIELD]
            outcome.trace = {
                "op": worker["op"],
                "spans": layers.service_spans(exchange.sent, exchange.received, payload),
                "counts": worker["counts"],
            }
        return outcome

    def _check_identity(self, outcomes: List[Outcome]) -> None:
        """Fail the operations that fall outside the workload's definition.

        In ``service-replay`` a program's first request is a disk-tier hit
        and later ones are memory hits; a worker recycle (after the pool's
        ``recycle_after`` jobs) would send them back to disk.  In
        ``service-edit`` every request misses the memory and whole-file
        disk tiers; a repeated source would be a memory hit.
        """
        disk_served = set()
        for outcome in outcomes:
            if outcome.error:
                continue
            if self.name == "service-replay":
                fits = outcome.tier == "memory" or (
                    outcome.tier == "disk" and outcome.program not in disk_served
                )
                if outcome.tier == "disk":
                    disk_served.add(outcome.program)
            else:
                fits = outcome.tier != "memory" and outcome.file_miss
            if not fits:
                outcome.error = (
                    f"outside {self.name}: {outcome.tier} tier, "
                    f"{outcome.rebuilt} units rebuilt"
                )

    def teardown(self) -> None:
        self.server.stop()


def make_workload(name: str, seed: int, session: service.Session):
    if name in BATCH:
        return Batch(name, seed)
    return Service(name, seed, session)


def verdicts(outcomes: Sequence[Outcome], controls: Sequence) -> Tuple[int, int]:
    """``(wrong verdicts, operations and controls)``: every operation must
    be accepted, and every control must get its known answer."""
    wrong = sum(1 for outcome in outcomes if outcome.accepted is False)
    wrong += sum(1 for control in controls if control.accepted != control.expect_accept)
    return wrong, len(outcomes) + len(controls)


def latencies(section: Section) -> List[float]:
    """The time to verdict of each operation that returned a verdict,
    scaled to the reference host's speed (see :mod:`hostspeed`)."""
    outcomes = section.outcomes
    scaled = hostspeed.scaled([o.seconds for o in outcomes], [o.references for o in outcomes])
    return [value for value, o in zip(scaled, outcomes) if o.accepted is not None]


def end_to_end(workload: str, section: Section, controls: Sequence) -> Dict[str, float]:
    """The end-to-end metrics of a section, at the reference host's speed.

    ``verdicts_per_s`` follows from the latencies by Little's law: a
    closed loop of ``n`` clients completes ``n`` operations per mean
    time to verdict (one client for batch workloads).
    """
    from repro.service.loadgen import percentile

    times = latencies(section)
    if not times:
        raise RuntimeError("no operation returned a verdict")
    clients = 1 if workload in BATCH else CLIENTS
    accepted = sum(1 for o in section.outcomes if o.accepted)
    wrong, total = verdicts(section.outcomes, controls)
    return {
        "verdicts_per_s": clients * accepted / sum(times),
        "latency_p50_ms": 1000 * percentile(times, 50),
        "latency_p95_ms": 1000 * percentile(times, 95),
        "peak_rss_mb": section.peak_rss_kb / 1024,
        "error_frac": sum(1 for o in section.outcomes if o.error) / len(section.outcomes),
        "wrong_verdict_frac": wrong / total,
    }


def tracing_slowdown(workload: str, untraced: Sequence[Section], traced: Section) -> float:
    """How many times longer a traced operation takes than an untraced one.

    Batch operations ran in untraced and traced pairs, back to back: the
    median of the pairs' ratios.  Service sections ran one after another:
    the ratio of their mean operations at the reference host's speed, so
    that a spell of the host between them is not taken for overhead.
    """
    if workload in BATCH:
        (paired,) = untraced
        return statistics.median(
            t.seconds / u.seconds for u, t in zip(paired.outcomes, traced.outcomes)
        )
    return statistics.fmean(latencies(traced)) / statistics.fmean(
        statistics.fmean(latencies(section)) for section in untraced
    )


def per_layer(
    workload: str, untraced: Sequence[Section], traced: Section
) -> Tuple[Dict[str, float], bool]:
    """The per-layer metrics of a traced section, and whether its layers
    account for it: the time outside every named layer stays within
    :data:`REMAINDER_LIMIT` of the mean operation.

    ``untraced`` holds the same schedule run untraced (see
    :func:`traced_sections`), for the tracing overhead.
    """
    traces = [o.trace for o in traced.outcomes if o.trace is not None]
    if not traces:
        raise RuntimeError("no traced operation returned a verdict")
    ops = len(traces)
    seconds = dict.fromkeys(layers.LAYERS, 0.0)
    counts: Counter = Counter()
    op_seconds = kernel_seconds = 0.0
    for trace in traces:
        spans = trace["spans"]
        for name, value in layers.self_times(spans).items():
            seconds[name] += value
        op_seconds += spans[0][2] - spans[0][1]
        kernel_seconds += sum(e - s for name, s, e, _ in spans if name == "kernel.closure")
        counts.update(trace["counts"])
    metrics: Dict[str, float] = {f"{name}.ms": 1000 * v / ops for name, v in seconds.items()}
    metrics["kernel.ms"] = 1000 * kernel_seconds / ops
    metrics["op.ms"] = 1000 * op_seconds / ops
    metrics["op.count"] = ops
    metrics["untraced.op.ms"] = metrics["op.ms"] / tracing_slowdown(workload, untraced, traced)
    metrics["tracing.overhead_ms"] = metrics["op.ms"] - metrics["untraced.op.ms"]
    remainder = sum(metrics[f"{name}.ms"] for name in layers.REMAINDERS)
    accounted = remainder <= REMAINDER_LIMIT * metrics["op.ms"]
    for name in ("kernel.methods.count", "kernel.rules.count"):
        metrics[name] = counts[name] / ops
    for name, prefix in (
        ("cache.memory.hit_frac", "cache.memory."),
        ("diskcache.file_hit_frac", "diskcache.file_"),
        ("diskcache.unit_hit_frac", "diskcache.unit_"),
    ):
        lookups = counts[prefix + "lookups"]
        metrics[name] = counts[prefix + "hits"] / lookups if lookups else 0.0
    sizes = layers.count_pass(o.source for o in traced.outcomes)
    for name in layers.SIZES:
        metrics[name] = statistics.fmean(sizes[o.source][name] for o in traced.outcomes)
    tiers = Counter(o.tier for o in traced.outcomes)
    for tier in ("memory", "disk", "miss"):
        metrics[f"worker.tier.{tier}"] = tiers[tier] / len(traced.outcomes)
    metrics["worker.units_reused"] = statistics.fmean(o.reused for o in traced.outcomes)
    metrics["worker.units_rebuilt"] = statistics.fmean(o.rebuilt for o in traced.outcomes)
    metrics["diskcache.entries"] = traced.disk_entries
    metrics["diskcache.quarantined"] = traced.quarantined
    for name in ("recycles", "crashes", "timeouts"):
        metrics[f"pool.{name}"] = traced.pool.get(name, 0)
    metrics["admission.throttled"] = traced.throttled
    metrics["client.retries"] = traced.retries
    return metrics, accounted


def print_end_to_end(
    label: str, section: Section, controls: Sequence, metrics: Dict[str, float],
    setups: Sequence[float] = (),
) -> None:
    from repro.service.loadgen import percentile

    attempted = len(section.outcomes)
    failed = [o for o in section.outcomes if o.error]
    wrong, total = verdicts(section.outcomes, controls)
    samples = len(latencies(section))
    beyond = samples - max(1, -(-95 * samples // 100))
    measured = [1000 * o.seconds for o in section.outcomes if o.accepted is not None]
    host = statistics.median(r for o in section.outcomes for r in o.references)
    host /= hostspeed.REFERENCE_SECONDS
    print(f"{label}: {attempted} operations in {section.seconds:.2f} s, "
          f"{attempted / section.seconds:.4f} per wall second")
    print(f"  as measured: latency p50 {percentile(measured, 50):.4f} ms, "
          f"p95 {percentile(measured, 95):.4f} ms; the host ran {host:.3f} times "
          f"slower than the reference host (median), and the metrics below are "
          f"scaled to the reference host")
    if setups:
        listed = ", ".join(f"{s:.3f}" for s in setups)
        print(f"  setup_s            {metrics['setup_s']:11.4f} s     median of {listed}")
    print(f"  verdicts_per_s     {metrics['verdicts_per_s']:11.4f} 1/s")
    print(f"  latency_p50_ms     {metrics['latency_p50_ms']:11.4f} ms    {samples} samples")
    print(f"  latency_p95_ms     {metrics['latency_p95_ms']:11.4f} ms    {beyond} samples beyond it")
    print(f"  peak_rss_mb        {metrics['peak_rss_mb']:11.4f} MB")
    print(f"  error_frac         {metrics['error_frac']:11.4f} frac  "
          f"{len(failed)} of {attempted} operations failed")
    print(f"  wrong_verdict_frac {metrics['wrong_verdict_frac']:11.4f} frac  "
          f"{wrong} of {total} verdicts wrong ({len(controls)} reject controls)")
    tiers = Counter(o.tier for o in section.outcomes if o.tier)
    if tiers:
        print(f"  mix: tiers {dict(sorted(tiers.items()))}, "
              f"units reused {sum(o.reused for o in section.outcomes)}, "
              f"rebuilt {sum(o.rebuilt for o in section.outcomes)}; pool {section.pool}; "
              f"client retries {section.retries}, throttled {section.throttled}")
    for outcome in failed[:5]:
        print(f"  failed: {outcome.program}: {outcome.error}")
    for control in controls:
        if control.accepted != control.expect_accept:
            print(f"  wrong: {control.name}: accepted={control.accepted} {control.detail}")


def print_layers(metrics: Dict[str, float], declared: Sequence[dict]) -> None:
    total = metrics["op.ms"]
    print(f"layers, self ms per operation over {metrics['op.count']} traced operations:")
    for name in layers.LAYERS:
        value = metrics[f"{name}.ms"]
        print(f"  {name + '.ms':24} {value:10.4f}  {100 * value / total:5.1f}%")
    remainder = sum(metrics[f"{name}.ms"] for name in layers.REMAINDERS)
    print(f"  outside every named layer ({', '.join(layers.REMAINDERS)}): {remainder:.4f} ms, "
          f"{100 * remainder / total:.1f}% of op.ms {total:.4f} "
          f"(limit {100 * REMAINDER_LIMIT:.0f}%)")
    print(f"  tracing overhead {metrics['tracing.overhead_ms']:.4f} ms per operation "
          f"(untraced {metrics['untraced.op.ms']:.4f} ms)")
    for item in declared:
        if not item["name"].endswith(".ms"):
            print(f"  {item['name']:24} {metrics[item['name']]:10.4f} {item['unit']}")


def emit(
    declared: Sequence[dict], metrics: Dict[str, float], outcomes: Sequence[Outcome],
    controls: Sequence, accounted: bool = True,
) -> int:
    """Print the result line; the exit code is 1 when a verdict is wrong
    or the traced layers leave too much time unaccounted for."""
    wrong, _ = verdicts(outcomes, controls)
    correct = wrong == 0 and accounted
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(1 for outcome in outcomes if outcome.error),
        "metrics": {
            item["name"]: {"value": metrics[item["name"]], "unit": item["unit"]}
            for item in declared
        },
    }))
    return 0 if correct else 1


def probe_setup(args: argparse.Namespace) -> float:
    """Set the workload up in a fresh interpreter; its set-up seconds."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
    ]
    probe = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        output, _ = probe.communicate(timeout=PROBE_TIMEOUT)
    finally:
        if probe.poll() is None:
            probe.terminate()  # the probe stops its servers on SIGTERM
            try:
                probe.wait(PROBE_TIMEOUT)
            except subprocess.TimeoutExpired:
                probe.kill()
                probe.wait()
    if probe.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {probe.returncode}")
    return json.loads(output.splitlines()[-1])["setup_s"]


def measured_run(args: argparse.Namespace, declared: Sequence[dict]) -> int:
    import inputs

    with service.Session(OUT) as session:
        workload = make_workload(args.workload, args.seed, session)
        with hostspeed.Sampler() as host:
            workload.setup(traced=False)
        # Scaled to the reference host's speed like the other metrics.
        setups = [process_age() / host.slowdown()]
        if args.setup_only:
            workload.teardown()
            print(json.dumps({"setup_s": setups[0]}))
            return 0
        passes = measured_passes(args.workload, args.seconds)
        section = workload.run(schedule(workload.passes, passes))
        workload.teardown()
    setups += [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    controls = inputs.reject_controls(workload.programs, args.seed)
    metrics = end_to_end(args.workload, section, controls)
    metrics["setup_s"] = statistics.median(setups)
    print_end_to_end(
        f"{args.workload}, seed {args.seed}, {passes} passes",
        section, controls, metrics, setups,
    )
    return emit(declared, metrics, section.outcomes, controls)


def traced_sections(args: argparse.Namespace) -> Tuple[List[Section], List[str], list]:
    """The traced schedule's sections, their labels, and the workload's
    programs.

    A batch workload runs every input once, then each operation untraced
    and traced back to back.  A service workload runs the schedule
    untraced, traced and untraced again, each on fresh servers (see
    :func:`tracing_slowdown`).
    """
    with service.Session(OUT) as session:
        if args.workload in BATCH:
            workload = make_workload(args.workload, args.seed, session)
            workload.setup(traced=True)
            ops = schedule(workload.passes, TRACED_PASSES[args.workload])
            workload.run(ops)
            sections = list(workload.run_paired(ops))
            workload.teardown()
            return sections, ["untraced", "traced"], workload.programs
        sections = []
        for traced in (False, True, False):
            workload = make_workload(args.workload, args.seed, session)
            workload.setup(traced)
            sections.append(workload.run(schedule(workload.passes, TRACED_PASSES[args.workload])))
            workload.teardown()
        return sections, ["untraced", "traced", "untraced again"], workload.programs


def traced_run(args: argparse.Namespace, declared: Sequence[dict]) -> int:
    import inputs

    sections, labels, programs = traced_sections(args)
    traced = sections[labels.index("traced")]
    controls = inputs.reject_controls(programs, args.seed)
    metrics, accounted = per_layer(
        args.workload, [s for s in sections if s is not traced], traced
    )
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-{args.seed}.json"
    spans.write_text(json.dumps([o.trace for o in traced.outcomes if o.trace is not None]))
    for label, section in zip(labels, sections):
        print_end_to_end(
            f"{args.workload}, seed {args.seed}, {label}",
            section, controls, end_to_end(args.workload, section, controls),
        )
    print_layers(metrics, declared)
    if not accounted:
        print(f"layer accounting failed: more than {100 * REMAINDER_LIMIT:.0f}% of the "
              f"mean operation lies outside every named layer")
    print(f"spans: {spans}")
    outcomes = [outcome for section in sections for outcome in section.outcomes]
    return emit(declared, metrics, outcomes, controls, accounted)


def use_checkout_sources() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``; exit without it."""
    package = ROOT / "src" / "repro"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: {package} is missing; run from the root of a checkout")
    sys.path.insert(0, str(package.parent))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported {repro.__file__}, not the checkout's {package}")


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Time to verdict, end to end and per layer.")
    parser.add_argument("--workload", required=True, choices=BATCH + SERVICE)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    # Leave through the finally blocks, which stop every server.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    use_checkout_sources()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.trace:
        return traced_run(args, spec["per_layer"])
    return measured_run(args, spec["end_to_end"])


if __name__ == "__main__":
    sys.exit(main())
