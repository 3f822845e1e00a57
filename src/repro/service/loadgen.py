"""Load generator: replay the harness corpus against a running server.

Trust: **advisory** — measurement tooling; its reports (latency,
throughput, ``error_trace_ids``) describe the service, never steer it.

``repro loadgen`` drives ``POST /v1/certify`` with the same 72-program
corpus the evaluation harness measures (Tables 1–6), at a target
concurrency, and emits a JSON latency report: p50/p95/p99, throughput,
the cache-hit split (memory/disk/miss), and optionally a single-shot CLI
baseline for the speedup claim.  Reports land in
``benchmarks/results/`` by default so serving performance is tracked
alongside the paper tables.

Worker threads each own a keep-alive :class:`ServiceClient` and pull
request indices from a shared queue; 429 backpressure responses are
honoured by sleeping out the server's ``Retry-After`` hint and retrying,
so the generator measures *goodput* under admission control rather than
hammering a full queue.
"""

from __future__ import annotations

import json
import math
import queue
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from .client import ServiceClient, ServiceError, ServiceThrottled

#: Default report location (relative to the current working directory).
DEFAULT_REPORT = Path("benchmarks") / "results" / "loadgen_report.json"


@dataclass
class LoadgenConfig:
    host: str = "127.0.0.1"
    port: int = 8421
    #: Total requests to send (corpus programs are replayed round-robin).
    requests: int = 144
    concurrency: int = 8
    #: Restrict to one suite (Viper/Gobra/VerCors/MPP); None = all 72 files.
    suite: Optional[str] = None
    timeout: float = 60.0
    #: Send each distinct program once (unmeasured) before the run, so the
    #: measured section reports warm-cache behaviour.
    warmup: bool = False
    #: Also time N single-shot CLI invocations for the speedup baseline.
    baseline: int = 0
    #: Mix N lint-defective requests into the run (spread evenly).  Each is
    #: a corpus program with a seeded permission-flow defect the admission
    #: analyzer provably rejects, so the run exercises the 422 fast path.
    defects: int = 0
    report_path: Optional[str] = str(DEFAULT_REPORT)


@dataclass
class _Sample:
    seconds: float
    ok: bool
    rejected: bool
    cache: str
    retries: int = 0
    #: 422 from the admission analyzer (the lint fast path).
    lint_rejected: bool = False
    #: HTTP status of the final (non-throttled) response.
    status: int = 0
    #: Server-assigned trace id (every certify response carries one; with
    #: --trace-dir set on the server, errored ids map to persisted traces).
    trace_id: str = ""


@dataclass
class _WorkerState:
    samples: List[_Sample] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    throttled: int = 0


def corpus_payloads(suite: Optional[str] = None) -> List[Dict[str, Any]]:
    """The replay set: one certify body per corpus program."""
    from ..harness import full_corpus, suite_files

    if suite:
        files = suite_files(suite)
    else:
        files = [f for file_list in full_corpus().values() for f in file_list]
    return [{"source": f.source} for f in files]


#: Seeded defect appended to a corpus program to build the "bad" corpus:
#: a write under a provably-half permission, which the admission analyzer
#: rejects (VPR008, error severity) before any untrusted stage runs.
_DEFECT_SNIPPET = """
field lintbad: Int

method lint_defect_writer(q: Ref)
  requires acc(q.lintbad, 1/2)
  ensures acc(q.lintbad, 1/2)
{
  q.lintbad := 1
}
"""


def defective_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of ``payload`` with a seeded lint defect appended."""
    bad = dict(payload)
    bad["source"] = payload["source"] + _DEFECT_SNIPPET
    return bad


def request_sequence(
    payloads: List[Dict[str, Any]], total: int, defects: int
) -> List[Dict[str, Any]]:
    """The per-request payload schedule: corpus round-robin with ``defects``
    defective requests spread evenly through the run."""
    sequence = [payloads[i % len(payloads)] for i in range(total)]
    defects = max(0, min(defects, total))
    if defects:
        step = total / defects
        for k in range(defects):
            index = min(total - 1, int(k * step))
            sequence[index] = defective_payload(sequence[index])
    return sequence


def percentile(values: List[float], q: float) -> float:
    """The q-th percentile (0 < q <= 100) by the nearest-rank method."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _drive(
    config: LoadgenConfig, payloads: List[Dict[str, Any]], total: int
) -> List[_WorkerState]:
    indices: "queue.Queue[int]" = queue.Queue()
    for i in range(total):
        indices.put(i)
    states = [_WorkerState() for _ in range(config.concurrency)]

    def worker(state: _WorkerState) -> None:
        with ServiceClient(config.host, config.port, timeout=config.timeout) as client:
            while True:
                try:
                    index = indices.get_nowait()
                except queue.Empty:
                    return
                payload = payloads[index % len(payloads)]
                retries = 0
                started = time.perf_counter()
                while True:
                    try:
                        response = client.certify(**payload)
                    except ServiceThrottled as throttled:
                        state.throttled += 1
                        retries += 1
                        if retries > 20:
                            state.errors.append(f"gave up after 20 throttles: {throttled}")
                            break
                        time.sleep(min(throttled.retry_after or 1.0, 2.0))
                        continue
                    except ServiceError as error:
                        state.errors.append(str(error))
                        break
                    state.samples.append(_Sample(
                        seconds=time.perf_counter() - started,
                        ok=bool(response.get("ok")),
                        rejected=bool(response.get("rejected")),
                        cache=str(response.get("cache", "miss")),
                        retries=retries,
                        lint_rejected=(
                            response.get("_status") == 422
                            and response.get("error_stage") == "analyze"
                        ),
                        status=int(response.get("_status", 0) or 0),
                        trace_id=str(response.get("trace_id", "")),
                    ))
                    break

    threads = [
        threading.Thread(target=worker, args=(state,), daemon=True)
        for state in states
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return states


def measure_cli_baseline(samples: int) -> Dict[str, Any]:
    """Time single-shot ``repro certify`` subprocesses on a corpus file.

    This is the number the service throughput claim is measured against:
    each invocation pays interpreter startup + imports + a cold pipeline.
    """
    payload = corpus_payloads("Viper")[0]
    durations: List[float] = []
    with tempfile.NamedTemporaryFile("w", suffix=".vpr", delete=False) as handle:
        handle.write(payload["source"])
        path = handle.name
    try:
        for _ in range(samples):
            started = time.perf_counter()
            result = subprocess.run(
                [sys.executable, "-m", "repro.cli", "certify", path],
                capture_output=True, text=True,
            )
            durations.append(time.perf_counter() - started)
            if result.returncode != 0:
                return {"samples": samples, "error":
                        f"baseline CLI failed rc={result.returncode}: {result.stderr[:200]}"}
    finally:
        Path(path).unlink(missing_ok=True)
    mean = sum(durations) / len(durations)
    return {
        "samples": samples,
        "single_shot_seconds_mean": round(mean, 4),
        "single_shot_rps": round(1.0 / mean, 3) if mean else 0.0,
    }


def run_loadgen(config: LoadgenConfig) -> Dict[str, Any]:
    """Run the load test and return (and optionally persist) the report."""
    payloads = corpus_payloads(config.suite)
    probe = ServiceClient(config.host, config.port, timeout=config.timeout)
    if not probe.wait_ready(timeout=10.0):
        raise ServiceError(
            f"no server answering on {config.host}:{config.port} "
            "(start one with `repro serve`)"
        )

    if config.warmup:
        for payload in payloads:
            try:
                probe.certify(**payload)
            except ServiceError:
                pass

    sequence = request_sequence(payloads, config.requests, config.defects)
    started = time.perf_counter()
    states = _drive(config, sequence, config.requests)
    duration = time.perf_counter() - started

    samples = [s for state in states for s in state.samples]
    errors = [e for state in states for e in state.errors]
    throttled = sum(state.throttled for state in states)
    latencies = [s.seconds for s in samples]
    cache_split = {"memory": 0, "disk": 0, "miss": 0}
    for sample in samples:
        cache_split[sample.cache] = cache_split.get(sample.cache, 0) + 1
    hits = cache_split["memory"] + cache_split["disk"]

    try:
        health = probe.healthz()
        health.pop("_status", None)
    except ServiceError:
        health = {}
    probe.close()

    report: Dict[str, Any] = {
        "meta": {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "host": config.host,
            "port": config.port,
            "requests": config.requests,
            "concurrency": config.concurrency,
            "suite": config.suite or "all",
            "corpus_files": len(payloads),
            "warmup": config.warmup,
            "defects": config.defects,
        },
        "duration_seconds": round(duration, 4),
        "throughput_rps": round(len(samples) / duration, 3) if duration else 0.0,
        "latency_ms": {
            "p50": round(percentile(latencies, 50) * 1000, 3),
            "p90": round(percentile(latencies, 90) * 1000, 3),
            "p95": round(percentile(latencies, 95) * 1000, 3),
            "p99": round(percentile(latencies, 99) * 1000, 3),
            "mean": round(sum(latencies) / len(latencies) * 1000, 3) if latencies else 0.0,
            "max": round(max(latencies) * 1000, 3) if latencies else 0.0,
        },
        "outcomes": {
            "completed": len(samples),
            "ok": sum(1 for s in samples if s.ok),
            "rejected": sum(1 for s in samples if s.rejected),
            "lint_rejected": sum(1 for s in samples if s.lint_rejected),
            "throttled_retries": throttled,
            "errors": len(errors),
            "error_samples": errors[:5],
            # 5xx/504 responses, with their trace ids: when the server ran
            # with --trace-dir, each id names a persisted trace file.
            "server_errors": sum(1 for s in samples if s.status >= 500),
            "error_trace_ids": sorted(
                {s.trace_id for s in samples if s.status >= 500 and s.trace_id}
            ),
        },
        "cache": {
            **cache_split,
            "hits": hits,
            "hit_rate": round(hits / len(samples), 4) if samples else 0.0,
        },
        "server": health,
    }
    if config.baseline:
        baseline = measure_cli_baseline(config.baseline)
        report["baseline"] = baseline
        rps = baseline.get("single_shot_rps")
        if rps:
            report["baseline"]["service_speedup"] = round(
                report["throughput_rps"] / rps, 2
            )

    if config.report_path:
        path = Path(config.report_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        report["report_path"] = str(path)
    return report


def summarise(report: Dict[str, Any]) -> str:
    """A short human-readable digest of a loadgen report."""
    latency = report["latency_ms"]
    outcomes = report["outcomes"]
    cache = report["cache"]
    lines = [
        f"loadgen: {outcomes['completed']} requests in "
        f"{report['duration_seconds']}s → {report['throughput_rps']} req/s "
        f"at concurrency {report['meta']['concurrency']}",
        f"  latency ms: p50={latency['p50']} p95={latency['p95']} "
        f"p99={latency['p99']} max={latency['max']}",
        f"  outcomes: ok={outcomes['ok']} rejected={outcomes['rejected']} "
        f"lint-rejected={outcomes.get('lint_rejected', 0)} "
        f"errors={outcomes['errors']} throttled-retries={outcomes['throttled_retries']}",
        f"  cache: memory={cache['memory']} disk={cache['disk']} "
        f"miss={cache['miss']} hit-rate={cache['hit_rate']}",
    ]
    baseline = report.get("baseline")
    if baseline and "single_shot_rps" in baseline:
        lines.append(
            f"  baseline: single-shot CLI {baseline['single_shot_rps']} req/s "
            f"→ service speedup ×{baseline.get('service_speedup', '?')}"
        )
    if report.get("report_path"):
        lines.append(f"  report: {report['report_path']}")
    return "\n".join(lines)
