"""The span model: trace IDs, ambient context, and the in-memory collector.

Trust: **advisory** — tracing observes the pipeline and the service; its
output is never consulted by the trusted reparse+check path (the same
position as the static analyzer, see docs/TRUSTED_BASE.md § Untrusted).

The paper's evaluation attributes cost per phase (Tab. 1–6); its
predecessor on validating Boogie's VC generation (arXiv:2105.14381) does
the same per validation phase.  This module generalises that discipline
from *aggregate* per-stage timings to *per-request, correlated* spans: a
:class:`Span` carries a 32-hex ``trace_id`` shared by every piece of work
done for one request, a 16-hex ``span_id``, and a ``parent_id`` linking
it into a tree — server accept → pool dispatch → worker → pipeline stage
→ method unit.

Design rules (docs/OBSERVABILITY.md has the full data model):

* **Zero dependencies, zero clock tricks.**  ``start_unix`` is epoch
  seconds (cross-process comparable); ``duration`` is measured with
  ``time.perf_counter`` (monotonic, immune to clock steps).
* **Context is ambient but explicit at boundaries.**  Inside one process
  a ``contextvars.ContextVar`` carries the current :class:`SpanContext`;
  across process boundaries the caller ships a W3C-traceparent-style
  header (``00-<trace_id>-<span_id>-<flags>``) in the job payload and the
  callee re-establishes the context (:func:`parse_traceparent` /
  :func:`use_context`).
* **Collection is opt-in.**  No collector, no allocation beyond the
  context lookup — which is how the tracing-off overhead stays ~0.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from contextvars import ContextVar

#: The only traceparent version this reproduction emits or accepts.
TRACEPARENT_VERSION = "00"


def new_trace_id() -> str:
    """A fresh 32-hex-digit (128-bit) trace identifier."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 16-hex-digit (64-bit) span identifier."""
    return os.urandom(8).hex()


def new_span_ids(count: int) -> Iterator[str]:
    """Up to ``count`` fresh span identifiers, from one read of the
    entropy source and sliced as they are taken."""
    pool = os.urandom(8 * count).hex()
    return (pool[start:start + 16] for start in range(0, 16 * count, 16))


@dataclass(frozen=True)
class SpanContext:
    """The propagatable part of a span: just enough to parent children."""

    trace_id: str
    span_id: str
    sampled: bool = True


def format_traceparent(ctx: SpanContext) -> str:
    """Render a context as a W3C-style traceparent header value."""
    flags = "01" if ctx.sampled else "00"
    return f"{TRACEPARENT_VERSION}-{ctx.trace_id}-{ctx.span_id}-{flags}"


def parse_traceparent(header: Optional[str]) -> Optional[SpanContext]:
    """Parse a traceparent value; returns None on anything malformed.

    Malformed headers are *dropped*, never raised on: a corrupt header
    must degrade to an untraced request, not a failed one.
    """
    if not isinstance(header, str):
        return None
    parts = header.strip().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_id, flags = parts
    if version != TRACEPARENT_VERSION:
        return None
    if len(trace_id) != 32 or len(span_id) != 16 or len(flags) != 2:
        return None
    try:
        int(trace_id, 16), int(span_id, 16)
        flag_bits = int(flags, 16)
    except ValueError:
        return None
    if set(trace_id) == {"0"} or set(span_id) == {"0"}:
        return None
    return SpanContext(trace_id=trace_id, span_id=span_id, sampled=bool(flag_bits & 1))


@dataclass
class Span:
    """One timed operation in a trace tree.

    ``start_unix`` is wall-clock epoch seconds; ``duration`` is seconds
    measured monotonically.  ``status`` is ``"ok"`` or ``"error"``.
    """

    name: str
    trace_id: str
    span_id: str = field(default_factory=new_span_id)
    parent_id: Optional[str] = None
    start_unix: float = 0.0
    duration: float = 0.0
    attributes: Dict[str, Any] = field(default_factory=dict)
    status: str = "ok"
    #: perf_counter at start; None once ended (internal to end()).
    _perf_start: Optional[float] = field(default=None, repr=False, compare=False)

    @classmethod
    def start(
        cls,
        name: str,
        *,
        parent: Optional[SpanContext] = None,
        trace_id: Optional[str] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> "Span":
        """Begin a span now, under ``parent`` (or as a new trace root)."""
        if parent is not None:
            trace = parent.trace_id
            parent_id: Optional[str] = parent.span_id
        else:
            trace = trace_id or new_trace_id()
            parent_id = None
        return cls(
            name=name,
            trace_id=trace,
            parent_id=parent_id,
            start_unix=time.time(),
            attributes=dict(attributes or {}),
            _perf_start=time.perf_counter(),
        )

    def end(self) -> "Span":
        """Stamp the duration from the monotonic clock (idempotent)."""
        if self._perf_start is not None:
            self.duration = time.perf_counter() - self._perf_start
            self._perf_start = None
        return self

    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def set_error(self, detail: str = "") -> None:
        self.status = "error"
        if detail:
            self.attributes.setdefault("error", detail)

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "start_unix": self.start_unix,
            "duration": self.duration,
        }
        if self.parent_id:
            record["parent_id"] = self.parent_id
        if self.attributes:
            record["attributes"] = dict(self.attributes)
        if self.status != "ok":
            record["status"] = self.status
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "Span":
        return cls(
            name=str(record["name"]),
            trace_id=str(record["trace_id"]),
            span_id=str(record.get("span_id") or new_span_id()),
            parent_id=record.get("parent_id"),
            start_unix=float(record.get("start_unix", 0.0)),
            duration=float(record.get("duration", 0.0)),
            attributes=dict(record.get("attributes", {})),
            status=str(record.get("status", "ok")),
        )


class TraceCollector:
    """A thread-safe, append-only span sink for one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []

    def add(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def extend(self, spans: List[Span]) -> None:
        with self._lock:
            self._spans.extend(spans)

    @property
    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def drain(self) -> List[Span]:
        """Return and clear every collected span."""
        with self._lock:
            spans, self._spans = self._spans, []
            return spans

    def by_trace(self, trace_id: str) -> List[Span]:
        with self._lock:
            return [s for s in self._spans if s.trace_id == trace_id]

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


# -- ambient context ---------------------------------------------------------

_CURRENT: "ContextVar[Optional[SpanContext]]" = ContextVar(
    "repro_trace_context", default=None
)


def current_context() -> Optional[SpanContext]:
    """The ambient span context of this task/thread, if any."""
    return _CURRENT.get()


def current_trace_id() -> Optional[str]:
    ctx = _CURRENT.get()
    return ctx.trace_id if ctx is not None else None


def current_traceparent() -> Optional[str]:
    """The ambient context rendered as a traceparent header (or None)."""
    ctx = _CURRENT.get()
    return format_traceparent(ctx) if ctx is not None else None


@contextmanager
def use_context(ctx: Optional[SpanContext]) -> Iterator[Optional[SpanContext]]:
    """Install ``ctx`` as the ambient context for the dynamic extent."""
    token = _CURRENT.set(ctx)
    try:
        yield ctx
    finally:
        _CURRENT.reset(token)


@contextmanager
def start_span(
    name: str,
    *,
    collector: Optional[TraceCollector] = None,
    parent: Optional[SpanContext] = None,
    attributes: Optional[Dict[str, Any]] = None,
) -> Iterator[Span]:
    """Run a block under a new span; parent defaults to the ambient context.

    The span becomes the ambient context for the block, is marked
    ``error`` if the block raises, and is added to ``collector`` (when
    given) after it ends.
    """
    span = Span.start(
        name, parent=parent if parent is not None else _CURRENT.get(),
        attributes=attributes,
    )
    token = _CURRENT.set(span.context())
    try:
        yield span
    except BaseException as error:
        span.set_error(f"{type(error).__name__}: {error}")
        raise
    finally:
        _CURRENT.reset(token)
        span.end()
        if collector is not None:
            collector.add(span)
