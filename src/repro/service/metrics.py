"""Service metrics: Prometheus text-format counters, gauges, histograms.

``GET /metrics`` renders this registry in the Prometheus exposition
format (text/plain; version=0.0.4) using only the stdlib.  Three kinds of
series are exposed:

* **counters** — request totals by endpoint/status, cache hits by tier,
  pool recycles, admission rejections;
* **gauges** — sampled at render time through registered callables:
  queue depth, in-flight requests, cache hit rate, pool workers, uptime;
* **histograms** — request latency per endpoint and *per-stage* pipeline
  latency (``repro_stage_seconds``), fed from the per-request
  :class:`~repro.pipeline.instrumentation.PipelineInstrumentation`
  records that workers ship back with each response.

Thread-safe: the event loop and the loadgen-facing render path touch the
registry from one thread, but worker completions may be recorded from
executor callback threads.

Histograms optionally carry **exemplars** — the last ``trace_id`` whose
observation landed in each bucket.  They surface only in the
OpenMetrics-style rendering (``render(exemplars=True)``, negotiated via
``Accept: application/openmetrics-text``) as
``bucket{...} N # {trace_id="..."} value`` suffixes; the default
Prometheus 0.0.4 text stays byte-compatible with earlier releases.
That links "the p99 is slow" directly to a persisted request trace
(docs/OBSERVABILITY.md).

Trust: **advisory** — observability only; nothing here feeds a verdict.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

#: Default latency buckets (seconds) — spans sub-millisecond parse times
#: through multi-second MPP checks.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _labels(labels: Optional[Mapping[str, str]]) -> LabelItems:
    return tuple(sorted((labels or {}).items()))


def _render_labels(items: LabelItems, extra: Optional[Mapping[str, str]] = None) -> str:
    merged = dict(items)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in sorted(merged.items()))
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Histogram:
    """A fixed-bucket latency histogram (cumulative, Prometheus-style)."""

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS):
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket")
        self.counts: List[int] = [0] * len(self.buckets)
        self.count = 0
        self.sum = 0.0
        #: Last (value, trace_id) observed per bucket index; the +Inf
        #: overflow bucket lives at index ``len(self.buckets)``.
        self.exemplars: Dict[int, Tuple[float, str]] = {}

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        index = bisect_left(self.buckets, value)
        if index < len(self.counts):
            self.counts[index] += 1
        self.count += 1
        self.sum += value
        if exemplar:
            self.exemplars[min(index, len(self.buckets))] = (value, exemplar)

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending with +Inf."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out


class ServiceMetrics:
    """The service-wide metric registry."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelItems], float] = {}
        self._histograms: Dict[Tuple[str, LabelItems], Histogram] = {}
        self._gauges: Dict[Tuple[str, LabelItems], Callable[[], float]] = {}
        self._help: Dict[str, str] = {}
        # Every server identifies its build, so a mixed-version set of
        # instances is visible during rolling restarts:
        # sum(repro_build_info) by (version) counts instances per version.
        from .. import __version__

        self.register_gauge(
            "repro_build_info",
            lambda: 1.0,
            "Constant 1, labelled with the running version.",
            labels={"version": __version__},
        )

    # -- recording ---------------------------------------------------------

    def inc(
        self,
        name: str,
        amount: float = 1.0,
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
    ) -> None:
        key = (name, _labels(labels))
        with self._lock:
            if help:
                self._help.setdefault(name, help)
            self._counters[key] = self._counters.get(key, 0.0) + amount

    def observe(
        self,
        name: str,
        value: float,
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        exemplar: Optional[str] = None,
    ) -> None:
        key = (name, _labels(labels))
        with self._lock:
            if help:
                self._help.setdefault(name, help)
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = Histogram(buckets)
            histogram.observe(value, exemplar=exemplar)

    def register_gauge(
        self,
        name: str,
        sample: Callable[[], float],
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Register a callable sampled at render time.

        The same gauge name may be registered once per label set (e.g.
        ``repro_build_info{version="..."}``).
        """
        with self._lock:
            if help:
                self._help.setdefault(name, help)
            self._gauges[(name, _labels(labels))] = sample

    # -- worker-result ingestion ------------------------------------------

    def record_stage_seconds(self, stage_seconds: Mapping[str, float]) -> None:
        """Feed per-stage latencies from one pipeline run's records."""
        for stage, seconds in stage_seconds.items():
            self.observe(
                "repro_stage_seconds",
                float(seconds),
                labels={"stage": stage},
                help="Pipeline stage latency in seconds.",
            )

    def record_worker_counters(self, counters: Mapping[str, float]) -> None:
        """Roll PipelineInstrumentation counters into service counters."""
        for counter, value in counters.items():
            self.inc(
                "repro_pipeline_counter_total",
                float(value),
                labels={"counter": counter},
                help="Aggregated PipelineInstrumentation counters.",
            )

    # -- queries -----------------------------------------------------------

    def counter_value(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> float:
        with self._lock:
            return self._counters.get((name, _labels(labels)), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter across all label sets."""
        with self._lock:
            return sum(v for (n, _), v in self._counters.items() if n == name)

    # -- rendering ---------------------------------------------------------

    def render(self, exemplars: bool = False) -> str:
        """The text exposition of the whole registry.

        With ``exemplars=True`` (the OpenMetrics-style variant) histogram
        bucket lines gain ``# {trace_id="..."} value`` suffixes where a
        traced observation landed in that bucket, and the document ends
        with the OpenMetrics ``# EOF`` terminator.
        """
        lines: List[str] = []
        with self._lock:
            counters = dict(self._counters)
            histograms = {
                k: (v.cumulative(), v.sum, v.count, dict(v.exemplars))
                for k, v in self._histograms.items()
            }
            gauges = dict(self._gauges)
            helps = dict(self._help)

        counter_names = sorted({name for name, _ in counters})
        for name in counter_names:
            if helps.get(name):
                lines.append(f"# HELP {name} {helps[name]}")
            lines.append(f"# TYPE {name} counter")
            for (cname, labels), value in sorted(counters.items()):
                if cname == name:
                    lines.append(f"{name}{_render_labels(labels)} {_format_value(value)}")

        gauge_names = sorted({name for name, _ in gauges})
        for name in gauge_names:
            if helps.get(name):
                lines.append(f"# HELP {name} {helps[name]}")
            lines.append(f"# TYPE {name} gauge")
            for (gname, labels), sample in sorted(gauges.items()):
                if gname != name:
                    continue
                try:
                    value = float(sample())
                except Exception:  # pragma: no cover - defensive: never 500 /metrics
                    value = float("nan")
                lines.append(f"{name}{_render_labels(labels)} {value}")

        histogram_names = sorted({name for name, _ in histograms})
        for name in histogram_names:
            if helps.get(name):
                lines.append(f"# HELP {name} {helps[name]}")
            lines.append(f"# TYPE {name} histogram")
            for (hname, labels), (cumulative, total, count, marks) in sorted(
                histograms.items()
            ):
                if hname != name:
                    continue
                for index, (bound, running) in enumerate(cumulative):
                    le = {"le": _format_value(bound)}
                    line = f"{name}_bucket{_render_labels(labels, le)} {running}"
                    if exemplars and index in marks:
                        value, trace_id = marks[index]
                        line += f' # {{trace_id="{trace_id}"}} {repr(float(value))}'
                    lines.append(line)
                lines.append(f"{name}_sum{_render_labels(labels)} {repr(total)}")
                lines.append(f"{name}_count{_render_labels(labels)} {count}")
        if exemplars:
            lines.append("# EOF")
        return "\n".join(lines) + "\n"
