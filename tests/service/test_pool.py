"""Worker-pool tests: thread mode, timeouts, recycling, async submit.

Thread mode is forced throughout (``use_threads=True``) so the tests run
in-process: single-core CI boxes get identical semantics, and
monkeypatching ``handle_job`` works because the thread fallback resolves
the target through the module attribute at submit time.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.service import worker as worker_module
from repro.service.pool import PoolConfig, PoolTimeout, WorkerPool

SOURCE = """
field val: Int

method get(self: Ref) returns (r: Int)
  requires acc(self.val)
  ensures acc(self.val) && r == self.val
{
  r := self.val
}
"""


def thread_pool(**overrides) -> WorkerPool:
    config = PoolConfig(jobs=1, use_threads=True, **overrides)
    return WorkerPool(config)


class TestLifecycle:
    def test_starts_lazily_and_reports_thread_mode(self):
        pool = thread_pool()
        assert pool.mode == "down"
        try:
            result = pool.submit_sync({"action": "certify", "source": SOURCE})
            assert result["ok"]
            assert pool.mode == "thread"
        finally:
            pool.shutdown()
        assert pool.mode == "down"

    def test_submit_sync_counts_submissions_and_completions(self):
        pool = thread_pool()
        try:
            pool.submit_sync({"action": "certify", "source": SOURCE})
            pool.submit_sync({"action": "certify", "source": SOURCE})
        finally:
            pool.shutdown()
        assert pool.stats.submitted == 2
        assert pool.stats.completed == 2

    def test_jobs_resolution_rejects_negative(self):
        with pytest.raises(ValueError):
            WorkerPool(PoolConfig(jobs=-1, use_threads=True))


class TestAsyncSubmit:
    def test_submit_returns_the_worker_response(self):
        pool = thread_pool()

        async def scenario():
            return await pool.submit({"action": "certify", "source": SOURCE})

        try:
            result = asyncio.run(scenario())
        finally:
            pool.shutdown()
        assert result["ok"] and result["action"] == "certify"

    def test_failures_are_counted_from_the_ok_flag(self):
        pool = thread_pool()

        async def scenario():
            return await pool.submit({"action": "certify", "source": "method oops("})

        try:
            result = asyncio.run(scenario())
        finally:
            pool.shutdown()
        assert not result["ok"]
        assert pool.stats.failures == 1

    def test_deadline_expiry_raises_pool_timeout(self, monkeypatch):
        def slow_job(payload):
            time.sleep(0.5)
            return {"ok": True}

        monkeypatch.setattr(worker_module, "handle_job", slow_job)
        pool = thread_pool(request_timeout=0.05)

        async def scenario():
            await pool.submit({"action": "certify", "source": SOURCE})

        try:
            with pytest.raises(PoolTimeout):
                asyncio.run(scenario())
        finally:
            pool.shutdown()
        assert pool.stats.timeouts == 1

    def test_per_call_timeout_overrides_the_config(self, monkeypatch):
        def slow_job(payload):
            time.sleep(0.3)
            return {"ok": True}

        monkeypatch.setattr(worker_module, "handle_job", slow_job)
        pool = thread_pool(request_timeout=0.01)

        async def scenario():
            return await pool.submit({"source": SOURCE}, timeout=5.0)

        try:
            result = asyncio.run(scenario())
        finally:
            pool.shutdown()
        assert result["ok"]

    def test_cancellation_is_propagated_and_counted(self, monkeypatch):
        def slow_job(payload):
            time.sleep(0.3)
            return {"ok": True}

        monkeypatch.setattr(worker_module, "handle_job", slow_job)
        pool = thread_pool()

        async def scenario():
            task = asyncio.ensure_future(pool.submit({"source": SOURCE}))
            await asyncio.sleep(0.01)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        try:
            asyncio.run(scenario())
        finally:
            pool.shutdown()
        assert pool.stats.cancelled == 1


class TestWorkerCrash:
    """Process-pool fault injection: SIGKILL a live worker mid-job.

    The contract (what lets a client or load balancer retry): the killed
    job fails *loudly* with :class:`WorkerCrash`, the pool replaces the
    broken executor with a fresh one of the same mode, and the very next
    submission succeeds.
    """

    @staticmethod
    def _slow_source(methods: int = 240) -> str:
        return "\n".join(
            f"method m{i}(x: Int) returns (y: Int)\n"
            f"  requires x > {i}\n  ensures y > {i}\n"
            f"{{\n  y := x + {i} + 1\n}}"
            for i in range(methods)
        )

    def test_sigkill_mid_job_fails_loudly_then_the_pool_recovers(self):
        import os
        import signal
        import threading

        from repro.service.pool import WorkerCrash

        pool = WorkerPool(PoolConfig(jobs=1, use_threads=False,
                                     request_timeout=60.0))
        try:
            warm = pool.submit_sync({"action": "certify", "source": SOURCE})
            if pool.mode != "process":  # pragma: no cover - exotic CI boxes
                pytest.skip("no process pool available on this platform")
            assert warm["ok"]
            victims = pool.worker_pids()
            assert victims, "a live process pool must report worker PIDs"

            outcome = {}

            def fire():
                try:
                    outcome["result"] = pool.submit_sync(
                        {"action": "certify", "source": self._slow_source()}
                    )
                except WorkerCrash as error:
                    outcome["crash"] = error

            thread = threading.Thread(target=fire)
            thread.start()
            # Let the job reach the worker, then kill it mid-certification.
            deadline = time.time() + 10.0
            while pool.stats.submitted < 2 and time.time() < deadline:
                time.sleep(0.01)
            time.sleep(0.05)
            for pid in victims:
                os.kill(pid, signal.SIGKILL)
            thread.join(timeout=30.0)

            assert "crash" in outcome, f"expected WorkerCrash, got {outcome}"
            assert pool.stats.crashes >= 1
            assert pool.stats.recycles >= 1
            # Fresh executor, same mode, next job just works.
            assert pool.mode == "process"
            assert pool.worker_pids() != victims or not pool.worker_pids()
            recovered = pool.submit_sync({"action": "certify", "source": SOURCE})
            assert recovered["ok"] is True
        finally:
            pool.shutdown(wait=False)


class TestRecycling:
    def test_executor_is_replaced_after_the_recycle_limit(self, monkeypatch):
        monkeypatch.setattr(worker_module, "handle_job", lambda payload: {"ok": True})
        pool = thread_pool(recycle_after=2)
        try:
            executors = set()
            for _ in range(5):
                pool.submit_sync({"source": SOURCE})
                executors.add(id(pool._executor))
        finally:
            pool.shutdown()
        assert pool.stats.recycles == 2  # after jobs 3 and 5
        assert len(executors) >= 2

    def test_recycling_disabled_when_limit_is_zero(self, monkeypatch):
        monkeypatch.setattr(worker_module, "handle_job", lambda payload: {"ok": True})
        pool = thread_pool(recycle_after=0)
        try:
            for _ in range(5):
                pool.submit_sync({"source": SOURCE})
        finally:
            pool.shutdown()
        assert pool.stats.recycles == 0


class TestDiskCacheShare:
    """Each worker process opens its own disk cache on the shared root and
    lists it after storing its share of the slack (service/diskcache.py);
    threads share one instance, which sees every store."""

    def test_process_workers_are_told_how_many_share_the_root(
        self, tmp_path, monkeypatch
    ):
        from repro.service import pool as pool_module

        started = {}

        class RecordingExecutor:
            def __init__(self, **kwargs):
                started.update(kwargs)

            def shutdown(self, wait=True):
                pass

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", RecordingExecutor)
        pool = WorkerPool(PoolConfig(jobs=3, worker_config={"cache_dir": str(tmp_path)}))
        pool.start()
        pool.shutdown()
        try:
            started["initializer"](*started["initargs"])
            assert worker_module._DISK_CACHE.workers == 3
        finally:
            worker_module.configure({})

    def test_thread_workers_share_one_instance(self, tmp_path):
        pool = WorkerPool(
            PoolConfig(jobs=3, use_threads=True, worker_config={"cache_dir": str(tmp_path)})
        )
        pool.start()
        pool.shutdown()
        try:
            assert worker_module._DISK_CACHE.workers == 1
        finally:
            worker_module.configure({})
