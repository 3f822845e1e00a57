"""Per-layer tracing, installed from the benchmark's own files.

Each wrapper stands in for one public function of the system, in the
module where its caller looks it up: the parse stage calls
``repro.pipeline.stages.parse_program``, so that is the name replaced,
and the service worker's own ``translate_method`` is replaced beside the
pipeline's.  While an operation is active, every call records a span
``[name, start, end, parent]``; the spans of one operation share its id
and stay in memory until the run ends.  With no active operation a
wrapper costs one attribute test and a call.

Span names are the per-layer metric names without their ``.ms`` suffix.
A layer's self time is its spans' durations minus the time their child
spans cover, so the self times of one operation add up to its root span.
All times are ``time.perf_counter()``, which on Linux reads the
system-wide monotonic clock, so spans from the client, the server and its
pool worker share one time base.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Request-body field that carries the operation id into the service,
#: which ignores body fields it does not know.
OP_FIELD = "bench_op"
#: Response fields the service-side wrappers fill in.
SERVER_FIELD = "bench_server"
WORKER_FIELD = "bench_worker"

#: (module, attribute, span): the pipeline's layers, wrapped where the
#: stage graph looks them up.  ``pretty_boogie_program`` is looked up in
#: its own module by the Boogie LoC accounting after ``translate``.
PIPELINE: Tuple[Tuple[str, str, str], ...] = (
    ("repro.pipeline.stages", "parse_program", "viper.parse"),
    ("repro.pipeline.stages", "desugar_loops", "viper.desugar"),
    ("repro.pipeline.stages", "desugar_new", "viper.desugar"),
    ("repro.pipeline.stages", "desugar_old", "viper.desugar"),
    ("repro.pipeline.stages", "hoist_call_args", "viper.desugar"),
    ("repro.pipeline.stages", "check_program", "viper.typecheck"),
    ("repro.pipeline.stages", "extract_units", "units"),
    ("repro.pipeline.stages", "compute_unit_keys", "units"),
    ("repro.analysis.checks", "analyze_program", "analysis"),
    ("repro.pipeline.stages", "translate_method", "frontend.translate"),
    ("repro.pipeline.stages", "assemble_translation", "frontend.translate"),
    ("repro.pipeline.stages", "generate_method_certificate", "tactic.generate"),
    ("repro.pipeline.stages", "render_method_certificate", "prooftree.render"),
    ("repro.pipeline.stages", "assemble_certificate_text", "prooftree.render"),
    ("repro.pipeline.stages", "parse_program_certificate", "prooftree.reparse"),
    ("repro.boogie.pretty", "pretty_boogie_program", "boogie.pretty"),
    ("repro.pipeline.stages", "check_program_certificate", "kernel.closure"),
    ("repro.certification.theorem", "check_boogie_program", "kernel.typecheck"),
    ("repro.certification.theorem", "standard_interpretation", "kernel.interp"),
    ("repro.certification.theorem", "constant_valuation", "kernel.interp"),
    ("repro.certification.theorem", "check_axioms_bounded", "kernel.axioms"),
    ("repro.certification.checker", "ProofChecker.check_method_certificate", "kernel.methods"),
    ("repro.pipeline.cache", "ArtifactCache.get_translation", "cache.memory"),
    ("repro.pipeline.cache", "ArtifactCache.get_certificate_text", "cache.memory"),
    ("repro.pipeline.cache", "ArtifactCache.get_unit", "cache.memory"),
    ("repro.pipeline.cache", "ArtifactCache.put_translation", "cache.memory"),
    ("repro.pipeline.cache", "ArtifactCache.put_certificate_text", "cache.memory"),
    ("repro.pipeline.cache", "ArtifactCache.put_unit", "cache.memory"),
)

#: The service worker's own references to the same layers, and the disk
#: tier.  Quarantines are renames, so they count as disk writes.
WORKER: Tuple[Tuple[str, str, str], ...] = (
    ("repro.service.worker", "translate_method", "frontend.translate"),
    ("repro.service.worker", "generate_method_certificate", "tactic.generate"),
    ("repro.service.worker", "render_method_certificate", "prooftree.render"),
    ("repro.service.worker", "assemble_certificate_text", "prooftree.render"),
    ("repro.service.worker", "parse_program_certificate", "prooftree.reparse"),
    ("repro.service.worker", "parse_boogie_program", "boogie.parse"),
    ("repro.service.worker", "pretty_boogie_program", "boogie.pretty"),
    ("repro.service.worker", "pretty_procedure", "boogie.pretty"),
    ("repro.service.worker", "check_program_certificate", "kernel.closure"),
    ("repro.service.diskcache", "DiskCache.load", "diskcache.load"),
    ("repro.service.diskcache", "DiskCache.load_unit", "diskcache.load"),
    ("repro.service.diskcache", "DiskCache.store", "diskcache.store"),
    ("repro.service.diskcache", "DiskCache.store_unit", "diskcache.store"),
    ("repro.service.diskcache", "DiskCache.quarantine", "diskcache.store"),
    ("repro.service.diskcache", "DiskCache.quarantine_unit", "diskcache.store"),
)

#: Every span name an operation can carry, in report order.  The roots
#: are ``other`` (a batch operation: pipeline glue outside every wrapped
#: layer) and ``server.http`` (a service round trip minus the pool's
#: submit: client, HTTP, admission).  The pool's submit splits into the
#: wait before the worker starts the job and the hand-back after it ends.
LAYERS: Tuple[str, ...] = (
    "viper.parse", "viper.desugar", "viper.typecheck", "units", "analysis",
    "frontend.translate", "tactic.generate", "prooftree.render",
    "prooftree.reparse", "boogie.parse", "boogie.pretty",
    "kernel.typecheck", "kernel.interp", "kernel.axioms", "kernel.methods",
    "kernel.closure", "cache.memory", "diskcache.load", "diskcache.store",
    "worker", "pool.queue_wait", "pool.ipc", "server.http", "other",
)
#: The spans whose self time is glue around the named layers they call.
#: A layer left unwrapped moves its time into its caller's self time, and
#: these are the callers: the pipeline's stage loop, the worker, the
#: request path and the kernel's entry point.
REMAINDERS: Tuple[str, ...] = ("other", "worker", "server.http", "kernel.closure")

#: Per-operation counts that :func:`count_pass` takes for each program.
SIZES: Tuple[str, ...] = (
    "viper.lines", "frontend.boogie_lines", "tactic.cert_lines", "kernel.axioms.evals",
)


class Recorder:
    """The spans and counts of the operation in progress in one process."""

    def __init__(self) -> None:
        self.op: Optional[str] = None
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self._open: List[int] = []

    def begin(self, op: str) -> None:
        self.op, self.spans, self.counts, self._open = op, [], {}, []

    def end(self) -> dict:
        record = {"op": self.op, "spans": self.spans, "counts": self.counts}
        self.op = None
        return record

    def open(self, name: str) -> int:
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
        index = len(self.spans) - 1
        self._open.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


def _kernel_methods(recorder: Recorder, report) -> None:
    recorder.count("kernel.methods.count")
    recorder.count("kernel.rules.count", report.rules_checked)


def _lookups(prefix: str) -> Callable[[Recorder, object], None]:
    def tally(recorder: Recorder, found: object) -> None:
        recorder.count(prefix + "lookups")
        if found is not None:
            recorder.count(prefix + "hits")

    return tally


#: Counts taken from a wrapped call's result, after its span has closed.
TALLIES: Dict[str, Callable[[Recorder, object], None]] = {
    "ProofChecker.check_method_certificate": _kernel_methods,
    "ArtifactCache.get_translation": _lookups("cache.memory."),
    "ArtifactCache.get_certificate_text": _lookups("cache.memory."),
    "ArtifactCache.get_unit": _lookups("cache.memory."),
    "DiskCache.load": _lookups("diskcache.file_"),
    "DiskCache.load_unit": _lookups("diskcache.unit_"),
}


def _wrap(recorder: Recorder, function: Callable, span: str, tally) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if recorder.op is None:
            return function(*args, **kwargs)
        index = recorder.open(span)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.close(index)
        if tally is not None:
            tally(recorder, result)
        return result

    return wrapper


def install(
    recorder: Recorder, targets: Sequence[Tuple[str, str, str]]
) -> Callable[[], None]:
    """Wrap every target; returns a function that puts the originals back."""
    undo = []
    for module_name, attribute, span in targets:
        owner = importlib.import_module(module_name)
        owner_name, _, name = attribute.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name)
        original = getattr(owner, name)
        setattr(owner, name, _wrap(recorder, original, span, TALLIES.get(attribute)))
        undo.append((owner, name, original))

    def restore() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return restore


def install_service(recorder: Recorder) -> None:
    """Wrap the layers a ``repro serve`` process and its pool worker run.

    Must run before the pool forks its worker.  ``handle_job`` is
    replaced under its own module and name, so the pool still pickles it
    by reference and the forked worker resolves the wrapper.  Only
    requests that carry :data:`OP_FIELD` are recorded; their worker spans
    and the server's submit interval travel back in the response.
    """
    install(recorder, PIPELINE + WORKER)
    from repro.service import worker
    from repro.service.pool import WorkerPool

    handle_job = worker.handle_job
    submit = WorkerPool.submit

    @functools.wraps(handle_job)
    def traced_handle_job(payload):
        if OP_FIELD not in payload:
            return handle_job(payload)
        recorder.begin(payload[OP_FIELD])
        index = recorder.open("worker")
        try:
            response = handle_job(payload)
        finally:
            recorder.close(index)
        response[WORKER_FIELD] = recorder.end()
        return response

    @functools.wraps(submit)
    async def traced_submit(self, payload, timeout=None):
        if OP_FIELD not in payload:
            return await submit(self, payload, timeout)
        start = time.perf_counter()
        response = await submit(self, payload, timeout)
        response[SERVER_FIELD] = [start, time.perf_counter()]
        return response

    worker.handle_job = traced_handle_job
    WorkerPool.submit = traced_submit


def service_spans(sent: float, received: float, response: dict) -> List[list]:
    """One service operation's span tree, from the client's round trip
    and the intervals the server and the worker sent back."""
    submitted, returned = response[SERVER_FIELD]
    worker_spans = response[WORKER_FIELD]["spans"]
    started, finished = worker_spans[0][1], worker_spans[0][2]
    spans = [
        ["server.http", sent, received, -1],
        ["pool.queue_wait", submitted, started, 0],
        ["pool.ipc", finished, returned, 0],
    ]
    for name, start, end, parent in worker_spans:
        spans.append([name, start, end, parent + 3 if parent >= 0 else 0])
    return spans


def self_times(spans: Sequence[list]) -> Dict[str, float]:
    """Seconds per span name: each span's duration minus its children's."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: Dict[str, float] = {}
    for (name, start, end, _), inner in zip(spans, covered):
        totals[name] = totals.get(name, 0.0) + (end - start) - inner
    return totals


def count_pass(sources: Iterable[str]) -> Dict[str, Dict[str, int]]:
    """:data:`SIZES` of each distinct source, counted apart from the timed
    spans: the Viper, Boogie and certificate LoC the pipeline records for
    it, and the ``eval_bexpr`` calls of its background-axiom check, which
    would inflate ``kernel.axioms`` if they were counted in the timed run."""
    from repro.pipeline import run_pipeline

    evals: Dict[tuple, int] = {}
    counts: Dict[str, Dict[str, int]] = {}
    for source in dict.fromkeys(sources):
        ctx = run_pipeline(source, upto="render")
        sizes = ctx.instrumentation.artifact_sizes()
        # The axiom check reads only the axioms and the field types.
        axioms = tuple(
            line for line in ctx.boogie_text.splitlines() if line.startswith("axiom ")
        )
        key = (axioms, repr(ctx.type_info.field_types))
        if key not in evals:
            evals[key] = _axiom_evals(ctx.translation)
        counts[source] = {
            "viper.lines": sizes["viper_loc"],
            "frontend.boogie_lines": sizes["boogie_loc"],
            "tactic.cert_lines": sizes["cert_loc"],
            "kernel.axioms.evals": evals[key],
        }
    return counts


def _axiom_evals(translation) -> int:
    """``eval_bexpr`` calls, nested ones included, of one axiom check."""
    from repro.boogie import semantics
    from repro.boogie.interp import check_axioms_bounded
    from repro.frontend.background import constant_valuation, standard_interpretation

    evaluate = semantics.eval_bexpr
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return evaluate(*args, **kwargs)

    semantics.eval_bexpr = counted
    try:
        check_axioms_bounded(
            translation.boogie_program,
            standard_interpretation(translation.type_info.field_types),
            constant_valuation(translation.background),
        )
    finally:
        semantics.eval_bexpr = evaluate
    return calls
