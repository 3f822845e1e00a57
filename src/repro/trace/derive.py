"""Derive trace spans from pipeline instrumentation records.

Trust: **advisory** — reads :class:`PipelineInstrumentation` after the
fact; the pipeline and the trusted reparse+check path are unaffected.

The pipeline already times itself (:mod:`repro.pipeline.instrumentation`
feeds the paper tables); duplicating that timing inside a tracer would
invite the two to disagree.  Spans are therefore *derived*: each
:class:`StageRecord` becomes one ``stage.<name>`` span whose duration is
the record's ``seconds`` (work) with a ``cache_lookup`` child span for
the record's ``cache_lookup_seconds`` (probe wall-time), and each
:class:`UnitRecord` becomes one ``unit.<stage>`` span parented under its
stage.  By construction a trace and ``bench --json`` can never tell a
different story about the same run.

Timing notes:

* Start times convert from the instrumentation's monotonic offsets to
  epoch seconds through its wall-clock anchor
  (:meth:`PipelineInstrumentation.to_unix`), so spans from different
  processes line up on one timeline.
* Unit spans are laid out at ``record time − duration``: each unit is
  recorded as soon as its work ends, so the layout is exact.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..pipeline.instrumentation import PipelineInstrumentation
from .spans import new_span_ids, Span, SpanContext, TraceCollector

#: Skipped-stage spans are emitted with this duration (zero-width slices
#: are invisible in Chrome's viewer; one microsecond marks the event).
_SKIP_WIDTH = 1e-6


def spans_from_instrumentation(
    inst: PipelineInstrumentation,
    parent: SpanContext,
    collector: Optional[TraceCollector] = None,
) -> List[Span]:
    """Materialise one span per stage/unit record under ``parent``.

    Returns the spans (stage spans first, in record order); also adds
    them to ``collector`` when one is given.
    """
    spans: List[Span] = []
    stage_ids: Dict[str, str] = {}
    trace_id, root_id, to_unix = parent.trace_id, parent.span_id, inst.to_unix
    # Every id this pass may need, from one read of the entropy source: a
    # span and a cache-probe child per stage record, a span per unit.
    ids = new_span_ids(2 * len(inst.records) + len(inst.unit_records))
    # Spans are built positionally, in field order (name, trace_id,
    # span_id, parent_id, start_unix, duration, attributes): this pass is
    # what tracing costs a request (docs/OBSERVABILITY.md).
    for record in inst.records:
        started = record.started
        if started is None:
            continue
        attributes = {}
        if record.cached:
            attributes["cached"] = True
        if record.skipped:
            attributes["skipped"] = True
        attributes.update(record.artifacts)
        # The span covers the stage's wall-clock (work + cache probes);
        # the cache_lookup child below carves out the probe share, so
        # span − child = the record's ``seconds`` — the same number
        # ``bench --json`` reports as stage work.
        probe = record.cache_lookup_seconds
        wall = record.seconds + probe
        if probe:
            attributes["work_seconds"] = record.seconds
            attributes["cache_lookup_seconds"] = probe
        span_id = next(ids)
        spans.append(Span(
            "stage." + record.stage, trace_id, span_id, root_id, to_unix(started),
            wall if (wall or not record.skipped) else _SKIP_WIDTH, attributes,
        ))
        # Later records of the same stage win: unit spans recorded after a
        # stage re-run should parent under the most recent execution.
        stage_ids[record.stage] = span_id
        if probe:
            # Probes run at stage entry (unit keys are resolved before any
            # rebuild), so anchoring at the stage start is the faithful
            # layout.
            spans.append(Span(
                "cache_lookup", trace_id, next(ids), span_id, to_unix(started), probe,
            ))
    for record in inst.unit_records:
        if record.started is None:
            continue
        attributes = {"method": record.method, "tier": record.tier}
        if record.reused:
            attributes["reused"] = True
        spans.append(Span(
            "unit." + record.stage, trace_id, next(ids),
            stage_ids.get(record.stage, root_id), to_unix(record.started),
            record.seconds if not record.reused else _SKIP_WIDTH, attributes,
        ))
    if collector is not None:
        collector.extend(spans)
    return spans
