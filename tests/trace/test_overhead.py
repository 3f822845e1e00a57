"""Tracing must cost (almost) nothing.

Two guards, per the design contract in ``docs/OBSERVABILITY.md``:

* **Tracing off is structurally free** — with no ambient context and no
  trace store, no span object is ever constructed: the worker returns no
  trace keys.
* **Tracing on is cheap** — spans are *derived* from instrumentation
  records the pipeline collects anyway, so the marginal cost is one
  post-hoc derive + export pass.  That pass must stay under 3% of the
  pipeline wall it describes.
"""

from __future__ import annotations

import statistics
import time

from repro.harness import suite_files
from repro.pipeline import run_pipeline
from repro.service import worker
from repro.trace.derive import spans_from_instrumentation
from repro.trace.export import chrome_trace
from repro.trace.spans import Span, current_traceparent

#: Timed passes of each side of the tracing-cost test, after an untimed one.
_TIMED_PASSES = 10


class TestTracingOffIsFree:
    def test_no_ambient_context_by_default(self):
        assert current_traceparent() is None

    def test_worker_response_has_no_trace_keys(self):
        worker.configure({})
        source = suite_files("Viper")[0].source
        response = worker.handle_job({"action": "certify", "source": source})
        assert response["ok"]
        assert "trace" not in response
        assert "trace_id" not in response


class TestTracingOnIsCheap:
    def test_derive_and_export_under_three_percent_of_pipeline_wall(self):
        # Both sides are timed warm, each over several back-to-back passes:
        # a first call also pays for first touches a serving process has
        # behind it, and any one pass can take a collection of the whole
        # test session's heap.  An untimed first pass warms each side; the
        # medians of the rest compare.
        source = suite_files("Viper")[0].source
        pipeline_walls = []
        for _ in range(1 + _TIMED_PASSES):
            started = time.perf_counter()
            ctx = run_pipeline(source)
            pipeline_walls.append(time.perf_counter() - started)
            assert ctx.report.ok

        tracing_walls = []
        for _ in range(1 + _TIMED_PASSES):
            root = Span.start("certify")
            started = time.perf_counter()
            spans = spans_from_instrumentation(ctx.instrumentation, root.context())
            chrome_trace([root.end()] + spans)
            tracing_walls.append(time.perf_counter() - started)
        assert spans  # the pass actually derived the full span set

        pipeline_wall = statistics.median(pipeline_walls[1:])
        tracing_wall = statistics.median(tracing_walls[1:])
        assert tracing_wall < 0.03 * pipeline_wall, (
            f"derive+export took {tracing_wall:.6f}s against a "
            f"{pipeline_wall:.6f}s pipeline run (>{3}%), medians of "
            f"{_TIMED_PASSES} warm passes"
        )
