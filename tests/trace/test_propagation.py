"""The executor and the ambient trace context.

The ambient context is a contextvar: the serial path runs the worker in
the dispatching context, and a process pool dispatched without a context
sees none.  These tests run genuine ``ProcessPoolExecutor`` children (no
mocks) and assert the trace id observed inside them.
"""

from __future__ import annotations

from repro.pipeline.executor import parallel_map
from repro.trace.spans import (
    SpanContext,
    current_trace_id,
    new_span_id,
    new_trace_id,
    use_context,
)


def _observed_trace(_item):
    """Module-level (picklable) worker reporting the ambient trace id."""
    return current_trace_id()


def _context():
    return SpanContext(trace_id=new_trace_id(), span_id=new_span_id())


class TestProcessPoolPropagation:
    def test_no_context_means_no_propagation(self):
        assert current_trace_id() is None
        observed = parallel_map(_observed_trace, [1, 2], jobs=2)
        assert observed == [None, None]

    def test_serial_path_inherits_natively(self):
        ctx = _context()
        with use_context(ctx):
            observed = parallel_map(_observed_trace, [1, 2], jobs=1)
        assert observed == [ctx.trace_id] * 2
