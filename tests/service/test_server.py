"""End-to-end service tests over a real socket.

A :class:`BackgroundServer` binds an ephemeral port (``port=0``) with the
in-process thread pool, and the stdlib :class:`ServiceClient` drives the
HTTP API exactly as ``repro loadgen`` does.  The headline scenarios:

* the quickstart program certifies twice — the second response is a
  cache hit and both verdicts agree;
* ``/metrics`` exposes the queue-depth gauge, the cache-hit-rate gauge,
  and per-stage latency histograms;
* a full admission queue answers 429 with a ``Retry-After`` hint;
* a certificate mutated on disk (via the legitimate store API, i.e. a
  checksum-valid envelope) is *rejected* by a restarted server — the
  trusted path re-derives verdicts instead of trusting the cache.
"""

from __future__ import annotations

import importlib.util
import threading
from pathlib import Path

import pytest

from repro.pipeline.cache import source_digest
from repro.service.client import ServiceClient, ServiceThrottled
from repro.service.diskcache import DiskCache, options_digest
from repro.service.server import BackgroundServer, ServerConfig
from tests.helpers import deep_parens_source, deep_sum_source


def _quickstart_source() -> str:
    """The exact program examples/quickstart.py walks through."""
    path = Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"
    spec = importlib.util.spec_from_file_location("repro_quickstart", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SOURCE


QUICKSTART = _quickstart_source()

SMALL = """
field val: Int

method get(self: Ref) returns (r: Int)
  requires acc(self.val)
  ensures acc(self.val) && r == self.val
{
  r := self.val
}
"""


def _config(tmp_path=None, **overrides) -> ServerConfig:
    return ServerConfig(
        port=0,
        use_threads=True,
        jobs=1,
        cache_dir=str(tmp_path) if tmp_path else None,
        quiet=True,
        **overrides,
    )


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("service-cache")
    with BackgroundServer(_config(cache_dir)) as background:
        client = ServiceClient(port=background.port)
        assert client.wait_ready(timeout=15.0)
        client.close()
        yield background


@pytest.fixture
def client(server):
    with ServiceClient(port=server.port) as c:
        yield c


class TestCertifyEndpoint:
    def test_quickstart_program_certifies_twice_second_is_a_hit(self, client):
        first = client.certify(QUICKSTART)
        assert first["_status"] == 200
        assert first["ok"] is True
        assert first["statement"]
        assert set(first["methods"]) == {"deposit", "audit", "client"}
        second = client.certify(QUICKSTART)
        assert second["ok"] is True
        assert second["cache"] in ("memory", "disk")
        assert second["statement"] == first["statement"]

    def test_artifacts_are_returned_on_request(self, client):
        response = client.certify(
            SMALL, include_certificate=True, include_boogie=True
        )
        assert response["ok"]
        assert response["certificate"].startswith("CERTIFICATE-V1")
        assert "procedure" in response["boogie"]

    def test_parse_failure_maps_to_422_with_stage(self, client):
        response = client.certify("method oops(")
        assert response["_status"] == 422
        assert response["error_stage"] == "parse"
        assert response["error"]

    @pytest.mark.parametrize("source, stage", [
        (deep_sum_source(400), "units"),
        (deep_parens_source(100), "parse"),
    ], ids=["sum-400-terms", "parens-100-deep"])
    def test_deep_input_is_a_coded_422_not_a_500(self, client, source, stage):
        response = client.certify(source)
        assert response["_status"] == 422
        assert response["code"] == "LIM001"
        assert response["error_stage"] == stage
        assert response["hint"]
        assert "traceback" not in response

    def test_translate_endpoint_returns_boogie(self, client):
        response = client.translate(SMALL)
        assert response["ok"] and "procedure" in response["boogie"]

    def test_batch_preserves_order_and_reports_width(self, client):
        response = client.batch([
            {"source": SMALL},
            {"source": "method oops(", "action": "certify"},
            {"source": QUICKSTART},
        ])
        assert response["_status"] == 200
        assert response["count"] == 3
        results = response["results"]
        assert results[0]["ok"] is True
        assert results[1]["ok"] is False and results[1].get("error_stage") == "parse"
        assert results[2]["ok"] is True


class TestOperationalEndpoints:
    def test_healthz_reports_pool_admission_and_cache(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["pool"]["mode"] == "thread"
        assert health["admission"]["limit"] >= 1
        assert "hit_rate" in health["cache"]
        assert health["uptime_seconds"] >= 0

    def test_metrics_expose_gauges_and_stage_histograms(self, client):
        client.certify(SMALL)  # ensure at least one pipeline run recorded
        client.certify(SMALL)  # and at least one cache hit
        text = client.metrics()
        # Gauges the issue names explicitly.
        assert "repro_queue_depth" in text
        assert "repro_in_flight" in text
        assert "repro_cache_hit_rate" in text
        # Per-stage latency histograms.
        assert 'repro_stage_seconds_bucket{le="+Inf",stage="check"}' in text
        assert "repro_stage_seconds_sum" in text
        assert "repro_stage_seconds_count" in text
        # Request counters by endpoint.
        assert 'endpoint="/v1/certify"' in text

    def test_metrics_expose_build_info(self, client):
        from repro import __version__

        text = client.metrics()
        assert f'repro_build_info{{version="{__version__}"}} 1' in text

    def test_unknown_route_is_404_and_bad_method_is_405(self, client):
        assert client._request("GET", "/nope")["_status"] == 404
        assert client._request("GET", "/v1/certify")["_status"] == 405

    def test_malformed_json_body_is_400(self, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request("POST", "/v1/certify", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            response.read()
            assert response.status == 400
        finally:
            conn.close()


class TestBackpressure:
    def test_full_queue_answers_429_with_retry_after(self, tmp_path):
        """With an admission bound of 1, concurrent cold requests must
        see 429 + Retry-After while one request holds the slot."""
        sources = [
            SMALL.replace("get", f"get_{i}").replace("val", f"val_{i}")
            for i in range(8)
        ]
        throttled, succeeded = [], []
        lock = threading.Lock()

        with BackgroundServer(_config(None, queue_limit=1)) as background:
            probe = ServiceClient(port=background.port)
            assert probe.wait_ready(timeout=15.0)
            probe.close()

            def fire(source: str) -> None:
                with ServiceClient(port=background.port) as c:
                    try:
                        response = c.certify(source)
                        with lock:
                            succeeded.append(response)
                    except ServiceThrottled as error:
                        with lock:
                            throttled.append(error)

            threads = [
                threading.Thread(target=fire, args=(s,)) for s in sources
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert succeeded, "at least one request should win the slot"
        assert throttled, "a full queue must push back with 429"
        assert all(e.status in (429, 503) for e in throttled)
        assert all((e.retry_after or 0) >= 1 for e in throttled)


class TestDrainAnnouncement:
    def test_healthz_answers_503_draining_with_retry_after(self, tmp_path):
        """During a SIGTERM drain the listener stays open for
        ``drain_notice`` seconds and ``/healthz`` answers 503
        ``draining`` + ``Retry-After`` — the window a load balancer's
        health probe needs to take the instance out of rotation *before*
        connects start failing."""
        import time

        config = _config(tmp_path, drain_notice=1.5)
        with BackgroundServer(config) as background:
            with ServiceClient(port=background.port) as c:
                assert c.wait_ready(timeout=15.0)
                background._loop.call_soon_threadsafe(
                    background.service.request_shutdown, 0
                )
                throttled = None
                deadline = time.time() + 10.0
                while time.time() < deadline and throttled is None:
                    try:
                        c.healthz()
                        time.sleep(0.02)
                    except ServiceThrottled as error:
                        throttled = error
                assert throttled is not None, "drain was never announced"
                assert throttled.status == 503
                assert throttled.retry_after == 1.0
                assert "draining" in str(throttled)


class TestWorkerCrashAtNodeLevel:
    def test_killed_worker_is_a_clean_500_and_the_node_recovers(self, tmp_path):
        """SIGKILL the pool worker mid-job: the in-flight request gets an
        honest 500 (never a hang, never a bogus verdict), the pool
        recycles, and the next request succeeds."""
        import os
        import signal
        import time

        slow = "\n".join(
            f"method m{i}(x: Int) returns (y: Int)\n"
            f"  requires x > {i}\n  ensures y > {i}\n"
            f"{{\n  y := x + {i} + 1\n}}"
            for i in range(240)
        )
        config = ServerConfig(
            port=0, use_threads=False, jobs=1,
            cache_dir=str(tmp_path), quiet=True,
        )
        with BackgroundServer(config) as background:
            with ServiceClient(port=background.port) as c:
                assert c.wait_ready(timeout=15.0)
                warm = c.certify(SMALL)
                assert warm["ok"]
                pool = background.service.pool
                if pool.mode != "process":  # pragma: no cover
                    pytest.skip("no process pool available on this platform")
                victims = pool.worker_pids()
                assert victims

                outcome = {}

                def fire():
                    with ServiceClient(port=background.port) as inner:
                        outcome["response"] = inner.certify(slow)

                thread = threading.Thread(target=fire)
                thread.start()
                deadline = time.time() + 10.0
                while pool.stats.submitted < 2 and time.time() < deadline:
                    time.sleep(0.01)
                time.sleep(0.05)
                for pid in victims:
                    os.kill(pid, signal.SIGKILL)
                thread.join(timeout=30.0)

                crashed = outcome["response"]
                assert crashed["_status"] == 500
                assert crashed["ok"] is False
                assert "crash" in crashed["error"]
                assert "repro_worker_crashes_total" in c.metrics()
                # The pool recycled: the same request now succeeds.
                recovered = c.certify(slow)
                assert recovered["_status"] == 200
                assert recovered["ok"] is True


class TestKernelIsNeverCachedEndToEnd:
    def test_mutated_disk_certificate_is_rejected_by_a_new_server(self, tmp_path):
        """Mutate the cached certificate on disk between two server runs;
        the restarted service must reject, quarantine, and recover."""
        config = _config(tmp_path)
        with BackgroundServer(config) as background:
            with ServiceClient(port=background.port) as c:
                assert c.wait_ready(timeout=15.0)
                mine = c.certify(SMALL, include_boogie=True)
                other = c.certify(QUICKSTART, include_certificate=True)
                assert mine["ok"] and other["ok"]

        # Attacker model: write access to the cache dir, including the
        # ability to produce checksum-valid envelopes via the store API.
        disk = DiskCache(tmp_path)
        key = (source_digest(SMALL), options_digest(None))
        disk.store(key, {
            "boogie_text": mine["boogie"],
            "certificate_text": other["certificate"],
        })

        with BackgroundServer(config) as background:
            with ServiceClient(port=background.port) as c:
                assert c.wait_ready(timeout=15.0)
                poisoned = c.certify(SMALL)
                assert poisoned["_status"] == 200
                assert poisoned["ok"] is False
                assert poisoned["rejected"] is True
                assert poisoned["cache"] == "disk"
                # The poisoned whole-file entry was quarantined: the next
                # request re-certifies successfully — served from the
                # still-valid per-unit envelopes of the original good run,
                # with the kernel verdict re-derived fresh either way.
                recovered = c.certify(SMALL)
                assert recovered["ok"] is True
                assert recovered["cache"] == "disk"
        assert list(DiskCache(tmp_path).quarantine_dir.glob("*.bad"))
