"""A persistent worker pool for the certification service.

:mod:`repro.pipeline.executor` owns *batch* fan-out (one pool per
``parallel_map`` call, torn down when the corpus is done).  A server
cannot pay pool startup per request, so this module keeps a
``ProcessPoolExecutor`` alive across requests while reusing the
executor's worker discipline and fallback policy:

* the job target is the module-level, picklable
  :func:`repro.service.worker.handle_job`, configured per process through
  the pool initializer (exactly how ``executor`` requires module-level
  workers);
* worker counts resolve through
  :func:`repro.pipeline.executor.resolve_jobs` (``0`` = one per CPU,
  negative rejected);
* the same infrastructure-failure set
  (:data:`repro.pipeline.executor._FALLBACK_ERRORS`) is recognised — at
  *startup* it degrades executor creation to a thread pool; *mid-job* it
  means a worker died (OOM kill, SIGKILL): the pool recycles itself to a
  fresh executor of the same mode and raises :class:`WorkerCrash`, so
  the request fails cleanly (5xx) instead of silently retrying, so the
  client (or a load balancer in front) sees the crash and can retry.

On top of that, serving-specific policies:

* **per-request timeouts** — :meth:`WorkerPool.submit` wraps the future
  in ``asyncio.wait_for``; timed-out work is cancelled if still queued;
* **cancellation** — if the awaiting task is cancelled (client
  disconnect, server drain), the queued pool future is cancelled too;
* **worker recycling** — after ``recycle_after`` dispatched jobs the
  process pool is replaced; the old one finishes its in-flight work and
  shuts down in the background (guards against leaks in long-lived
  workers, and doubles as a cheap way to re-read the disk tier).

Tracing: payloads carrying a ``traceparent`` are stamped with a
``dispatched_unix`` wall-clock time at submission, so the worker can
report the pool-queue wait (span attribute ``queue_wait_seconds``)
without any cross-process clock tricks beyond epoch seconds.

Trust: **untrusted** infrastructure — scheduling only; every verdict
still comes from the worker's fresh reparse+kernel run.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..pipeline.executor import _FALLBACK_ERRORS, resolve_jobs
from . import worker as worker_module


class PoolTimeout(Exception):
    """A job exceeded its per-request deadline."""


class WorkerCrash(Exception):
    """A worker died mid-job; the pool recycled and the job was lost."""


@dataclass
class PoolConfig:
    """Static configuration for one :class:`WorkerPool`."""

    #: Worker processes: ``0`` = one per CPU, ``1`` = single worker,
    #: ``None`` = single worker.  Negative values raise (executor policy).
    jobs: Optional[int] = 0
    #: Replace worker processes after this many dispatched jobs
    #: (``None``/0 disables recycling).
    recycle_after: Optional[int] = 500
    #: Per-request wall-clock deadline in seconds (``None`` = unbounded).
    request_timeout: Optional[float] = 60.0
    #: Force the thread fallback (used by tests and single-core setups).
    use_threads: bool = False
    #: Passed through to :func:`repro.service.worker.configure`.
    worker_config: Dict[str, Any] = field(default_factory=dict)


@dataclass
class PoolStats:
    submitted: int = 0
    completed: int = 0
    failures: int = 0
    timeouts: int = 0
    cancelled: int = 0
    recycles: int = 0
    fallbacks: int = 0
    crashes: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failures": self.failures,
            "timeouts": self.timeouts,
            "cancelled": self.cancelled,
            "recycles": self.recycles,
            "fallbacks": self.fallbacks,
            "crashes": self.crashes,
        }


class WorkerPool:
    """A persistent, recycling, timeout-aware pool around ``handle_job``."""

    def __init__(self, config: Optional[PoolConfig] = None):
        self.config = config or PoolConfig()
        self.workers = max(1, resolve_jobs(self.config.jobs))
        self.stats = PoolStats()
        self._executor: Optional[Executor] = None
        self._mode = "down"
        self._dispatched_since_recycle = 0
        #: Bumped on every executor replacement; crash handling compares
        #: generations so N concurrent crashed jobs recycle the pool once.
        self._generation = 0
        self._lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    @property
    def mode(self) -> str:
        """``process`` | ``thread`` | ``down``."""
        return self._mode

    def start(self) -> None:
        if self._executor is not None:
            return
        self._executor = self._make_executor()

    def _make_executor(self) -> Executor:
        if not self.config.use_threads:
            try:
                # Each process opens its own disk cache on the shared root;
                # the count sizes how often each lists it (diskcache.py).
                worker_config = {**self.config.worker_config, "cache_workers": self.workers}
                executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=worker_module.configure,
                    initargs=(worker_config,),
                )
                self._mode = "process"
                return executor
            except _FALLBACK_ERRORS:
                self.stats.fallbacks += 1
        # Thread fallback: workers share the process, and so one disk cache.
        worker_module.configure(self.config.worker_config)
        self._mode = "thread"
        return ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-worker"
        )

    def shutdown(self, wait: bool = True) -> None:
        executor, self._executor = self._executor, None
        self._mode = "down"
        if executor is not None:
            executor.shutdown(wait=wait)

    # -- recycling ---------------------------------------------------------

    def _maybe_recycle(self) -> None:
        limit = self.config.recycle_after
        if not limit or limit < 1:
            return
        if self._dispatched_since_recycle < limit:
            return
        self._dispatched_since_recycle = 0
        self.stats.recycles += 1
        self._generation += 1
        old, self._executor = self._executor, self._make_executor()
        if old is not None:
            # Let in-flight work finish; reap the old pool off-thread.
            threading.Thread(
                target=old.shutdown, kwargs={"wait": True}, daemon=True
            ).start()

    def _recycle_broken_locked(self) -> None:
        """Replace a broken executor with a fresh one (caller holds lock)."""
        self.stats.recycles += 1
        self._generation += 1
        self._dispatched_since_recycle = 0
        old, self._executor = self._executor, self._make_executor()
        if old is not None:
            threading.Thread(
                target=old.shutdown, kwargs={"wait": False}, daemon=True
            ).start()

    def _handle_crash(self, generation: int) -> None:
        """Recycle after a mid-job worker death, at most once per generation."""
        self.stats.crashes += 1
        self.stats.failures += 1
        with self._lock:
            if generation == self._generation:
                self._recycle_broken_locked()

    def worker_pids(self) -> List[int]:
        """PIDs of live worker processes (empty in thread mode)."""
        executor = self._executor
        if not isinstance(executor, ProcessPoolExecutor):
            return []
        processes = getattr(executor, "_processes", None) or {}
        return [proc.pid for proc in processes.values() if proc.pid is not None]

    # -- submission --------------------------------------------------------

    @staticmethod
    def _stamp_dispatch(payload: Dict[str, Any]) -> None:
        """Record the dispatch time on traced payloads (queue-wait spans)."""
        if "traceparent" in payload:
            payload.setdefault("dispatched_unix", time.time())

    def _submit_raw(self, fn: Callable[..., Any], *args: Any) -> Tuple[Any, int]:
        """Submit and return ``(future, generation)`` for crash tracking."""
        with self._lock:
            if self._executor is None:
                self.start()
            self._maybe_recycle()
            self._dispatched_since_recycle += 1
            self.stats.submitted += 1
            try:
                return self._executor.submit(fn, *args), self._generation
            except _FALLBACK_ERRORS:
                # The pool broke while idle (a worker died between jobs).
                # The job never started, so a one-shot resubmit on a fresh
                # executor is transparent to the caller.
                self.stats.crashes += 1
                self._recycle_broken_locked()
                return self._executor.submit(fn, *args), self._generation

    def submit_sync(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Blocking submit (tests, non-async callers)."""
        self._stamp_dispatch(payload)
        future, generation = self._submit_raw(worker_module.handle_job, payload)
        try:
            result = future.result(timeout=self.config.request_timeout)
        except TimeoutError:
            self.stats.timeouts += 1
            future.cancel()
            raise PoolTimeout(
                f"request exceeded {self.config.request_timeout}s"
            ) from None
        except _FALLBACK_ERRORS as error:
            self._handle_crash(generation)
            raise WorkerCrash(
                f"worker crashed mid-job ({type(error).__name__}: {error})"
            ) from None
        self.stats.completed += 1
        return result

    async def submit(
        self, payload: Dict[str, Any], timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Submit one job from the event loop; returns the response dict.

        Raises :class:`PoolTimeout` on deadline expiry and re-raises
        ``asyncio.CancelledError`` (after cancelling queued pool work) if
        the awaiting task is cancelled — e.g. the client disconnected.
        """
        deadline = timeout if timeout is not None else self.config.request_timeout
        self._stamp_dispatch(payload)
        future, generation = self._submit_raw(worker_module.handle_job, payload)
        wrapped = asyncio.wrap_future(future)
        try:
            result = await asyncio.wait_for(wrapped, deadline)
        except asyncio.TimeoutError:
            self.stats.timeouts += 1
            future.cancel()
            raise PoolTimeout(f"request exceeded {deadline}s") from None
        except asyncio.CancelledError:
            self.stats.cancelled += 1
            future.cancel()
            raise
        except _FALLBACK_ERRORS as error:
            # A worker died mid-job (OOM kill, SIGKILL, fork trouble).
            # Recycle to a fresh pool of the same mode and fail *this*
            # request cleanly — a silent in-process retry would hide real
            # crashes from the operator and from the client's retry logic.
            self._handle_crash(generation)
            raise WorkerCrash(
                f"worker crashed mid-job ({type(error).__name__}: {error})"
            ) from None
        self.stats.completed += 1
        if not result.get("ok", False):
            self.stats.failures += 1
        return result
