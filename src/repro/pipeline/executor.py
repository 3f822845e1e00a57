"""Parallel corpus executor with deterministic ordering and serial fallback.

The evaluation harness, ``repro.cli bench``, and the ``benchmarks/``
scripts all fan the pipeline out over corpus files.  This module is the
one place that owns the fan-out:

* results come back **in input order**, regardless of completion order, so
  parallel runs render byte-identical tables (timings aside) to serial
  runs;
* ``jobs=None``/``jobs=1`` runs serially in-process (the default — the
  pipeline is deterministic, and serial runs keep per-file timings
  comparable with the paper's single-threaded measurements);
* ``jobs=0`` ("auto") uses one worker per CPU;
* when process pools are unavailable (restricted sandboxes, non-picklable
  workers), execution **falls back to serial** instead of failing.

Workers must be module-level callables (picklable); the harness exposes
:func:`repro.harness.runner.run_file` for exactly this purpose.

Trust: **untrusted-but-checked** — the executor only schedules untrusted
stages; whatever it produces passes through the trusted reparse+check
path downstream.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

try:  # pragma: no cover - availability depends on the platform
    from concurrent.futures.process import BrokenProcessPool
except ImportError:  # pragma: no cover
    class BrokenProcessPool(RuntimeError):  # type: ignore[no-redef]
        pass

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: Infrastructure failures that trigger the serial fallback.  Exceptions
#: raised by the *worker itself* are generally not in this set — they
#: propagate.  ``AttributeError`` is included because CPython reports
#: unpicklable callables (lambdas, closures) that way; a genuine worker
#: AttributeError re-raises identically from the serial fallback.
_FALLBACK_ERRORS = (OSError, BrokenProcessPool, pickle.PicklingError, AttributeError)


def default_jobs() -> int:
    """The 'auto' worker count: one per CPU (at least 1)."""
    return max(1, os.cpu_count() or 1)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: None/1 → serial, 0 → auto.

    Negative values are rejected with a :class:`ValueError` (previously
    they silently fell through to "auto", masking caller bugs).
    """
    if jobs is None:
        return 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0 = one worker per CPU); got {jobs}")
    if jobs == 0:
        return default_jobs()
    return jobs


def _serial_map(
    worker: Callable[[ItemT], ResultT], items: Sequence[ItemT]
) -> List[ResultT]:
    return [worker(item) for item in items]


def parallel_map(
    worker: Callable[[ItemT], ResultT],
    items: Iterable[ItemT],
    jobs: Optional[int] = None,
) -> List[ResultT]:
    """Map ``worker`` over ``items``, preserving input order.

    With ``jobs`` resolving to 1 (the default) this is a plain list
    comprehension.  Otherwise items are dispatched to a
    :class:`~concurrent.futures.ProcessPoolExecutor` and results are
    collected in submission order, so the output is deterministic given a
    deterministic worker.  Pool-infrastructure failures (fork refused,
    worker crash, unpicklable worker) fall back to serial execution;
    exceptions raised *by the worker* propagate unchanged.
    """
    materialised = list(items)
    workers = min(resolve_jobs(jobs), max(1, len(materialised)))
    if workers <= 1 or len(materialised) <= 1:
        return _serial_map(worker, materialised)
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(worker, item) for item in materialised]
            return [future.result() for future in futures]
    except _FALLBACK_ERRORS:
        return _serial_map(worker, materialised)


def parallel_map_batches(
    worker: Callable[[ItemT], ResultT],
    items: Iterable[ItemT],
    jobs: Optional[int] = None,
    batch_size: Optional[int] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> List[ResultT]:
    """Like :func:`parallel_map`, but in bounded batches with a stop check.

    Long-running producers (``repro fuzz --time-budget``) cannot submit
    their whole workload up front: a budget check must run between
    dispatches.  This helper cuts ``items`` into deterministic, input-order
    batches of ``batch_size`` (default: ``4 × workers``), maps each batch
    with :func:`parallel_map`, and consults ``should_stop()`` between
    batches — already-dispatched work always completes, so the result list
    is a deterministic *prefix* of the full-run result list.
    """
    materialised = list(items)
    workers = resolve_jobs(jobs)
    size = batch_size if batch_size and batch_size > 0 else max(1, 4 * workers)
    results: List[ResultT] = []
    for start in range(0, len(materialised), size):
        if should_stop is not None and should_stop() and results:
            break
        results.extend(parallel_map(worker, materialised[start:start + size], jobs))
    return results
