"""End-to-end request tracing through the live service.

A :class:`BackgroundServer` with ``trace_dir`` set must produce, for one
``/v1/certify`` request, a single persisted Chrome-loadable trace whose
spans cover server accept → admission → pool dispatch → worker handling
→ every pipeline stage → every method unit — all under one ``trace_id``
that the response and the ``X-Trace-Id`` header echo.  Deadline expiries
(504) persist an error trace unconditionally.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.service import worker
from repro.service.server import BackgroundServer, ServerConfig
from repro.trace.export import read_spans
from repro.trace.spans import SpanContext, format_traceparent, new_span_id, new_trace_id

SMALL = """
field val: Int

method get(self: Ref) returns (r: Int)
  requires acc(self.val)
  ensures acc(self.val) && r == self.val
{
  r := self.val
}
"""


def _post(port: int, path: str, body: dict, headers=None):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.load(response), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error), dict(error.headers)


def _config(**overrides) -> ServerConfig:
    return ServerConfig(port=0, use_threads=True, jobs=1, quiet=True, **overrides)


class TestTracedRequests:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        trace_dir = tmp_path_factory.mktemp("traces")
        config = _config(trace_dir=str(trace_dir), trace_rate=1.0)
        with BackgroundServer(config) as server:
            status, body, headers = _post(
                server.port, "/v1/certify", {"source": SMALL}
            )
            yield trace_dir, status, body, headers, server

    def test_response_carries_trace_id(self, traced):
        _, status, body, headers, _ = traced
        assert status == 200 and body["ok"]
        assert len(body["trace_id"]) == 32
        assert headers["X-Trace-Id"] == body["trace_id"]

    def test_trace_never_leaks_into_the_response_body(self, traced):
        # Span dicts travel worker→server internally and are folded into
        # the store; clients get only the id.
        _, _, body, _, _ = traced
        assert "trace" not in body

    def test_one_trace_covers_server_pool_stage_unit(self, traced):
        trace_dir, _, body, _, _ = traced
        (path,) = trace_dir.glob(f"{body['trace_id']}*.trace.json")
        spans = read_spans(str(path))
        assert {s.trace_id for s in spans} == {body["trace_id"]}
        names = {s.name for s in spans}
        assert {"request", "admission", "pool.submit", "worker.handle"} <= names
        assert {"stage.parse", "stage.translate", "stage.check"} <= names
        assert {"unit.translate", "unit.generate"} <= names

    def test_span_tree_is_connected(self, traced):
        trace_dir, _, body, _, _ = traced
        (path,) = trace_dir.glob(f"{body['trace_id']}*.trace.json")
        spans = read_spans(str(path))
        by_id = {s.span_id: s for s in spans}
        roots = [s for s in spans if s.parent_id is None]
        assert [r.name for r in roots] == ["request"]
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in by_id, span.name

    def test_worker_span_reports_queue_wait(self, traced):
        trace_dir, _, body, _, _ = traced
        (path,) = trace_dir.glob(f"{body['trace_id']}*.trace.json")
        (handle,) = [s for s in read_spans(str(path)) if s.name == "worker.handle"]
        assert handle.attributes["queue_wait_seconds"] >= 0.0
        assert handle.attributes["action"] == "certify"

    def test_persisted_counter_and_openmetrics_exemplar(self, traced):
        trace_dir, _, body, _, server = traced
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/metrics",
            headers={"Accept": "application/openmetrics-text"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            content_type = response.headers["Content-Type"]
            text = response.read().decode("utf-8")
        assert content_type.startswith("application/openmetrics-text")
        assert "repro_traces_persisted_total" in text
        assert f'# {{trace_id="{body["trace_id"]}"}}' in text
        assert text.rstrip().endswith("# EOF")

        # The plain Prometheus variant stays exemplar-free.
        with urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}/metrics", timeout=10
        ) as response:
            plain = response.read().decode("utf-8")
        assert "# {" not in plain
        assert "# EOF" not in plain


class TestUntracedRequests:
    def test_no_trace_dir_still_mints_ids_but_writes_nothing(self, tmp_path):
        with BackgroundServer(_config()) as server:
            status, body, headers = _post(
                server.port, "/v1/certify", {"source": SMALL}
            )
        assert status == 200 and body["ok"]
        assert len(body["trace_id"]) == 32
        assert headers["X-Trace-Id"] == body["trace_id"]
        assert "trace" not in body
        assert list(tmp_path.iterdir()) == []


class TestErrorTraces:
    def test_504_persists_an_error_trace(self, tmp_path, monkeypatch):
        # A deadline the pipeline cannot meet: every certify times out.
        # The parse delay makes the job outlast it, so a fast worker
        # thread cannot finish before the event loop's deadline fires.
        monkeypatch.setenv("REPRO_STAGE_DELAY", "parse=0.05")
        config = _config(
            trace_dir=str(tmp_path), request_timeout=0.0001, drain_grace=0.5
        )
        with BackgroundServer(config) as server:
            status, body, _ = _post(server.port, "/v1/certify", {"source": SMALL})
        assert status == 504
        trace_id = body["trace_id"]
        (path,) = tmp_path.glob(f"{trace_id}.error.trace.json")
        spans = read_spans(str(path))
        (root,) = [s for s in spans if s.name == "request"]
        assert root.status == "error"
        assert root.attributes["status"] == 504
        (pool,) = [s for s in spans if s.name == "pool.submit"]
        assert pool.status == "error"


class TestWorkerJobTracing:
    """handle_job-level behaviour, without a server in the way."""

    def setup_method(self):
        worker.configure({})

    def test_traceparent_yields_trace_and_trace_id(self):
        parent = SpanContext(trace_id=new_trace_id(), span_id=new_span_id())
        response = worker.handle_job({
            "action": "certify",
            "source": SMALL,
            "traceparent": format_traceparent(parent),
        })
        assert response["ok"]
        assert response["trace_id"] == parent.trace_id
        names = {s["name"] for s in response["trace"]}
        assert "worker.handle" in names and "stage.check" in names
        (handle,) = [s for s in response["trace"] if s["name"] == "worker.handle"]
        assert handle["parent_id"] == parent.span_id

    def test_no_traceparent_yields_no_trace_keys(self):
        response = worker.handle_job({"action": "certify", "source": SMALL})
        assert response["ok"]
        assert "trace" not in response
        assert "trace_id" not in response

    def test_malformed_traceparent_degrades_to_untraced(self):
        response = worker.handle_job({
            "action": "certify", "source": SMALL, "traceparent": "junk",
        })
        assert response["ok"]
        assert "trace" not in response

    def test_early_reject_is_traced_without_stage_spans(self):
        parent = SpanContext(trace_id=new_trace_id(), span_id=new_span_id())
        response = worker.handle_job({
            "action": "nonsense",
            "traceparent": format_traceparent(parent),
        })
        assert response["status"] == 400
        assert response["trace_id"] == parent.trace_id
        names = [s["name"] for s in response["trace"]]
        assert names == ["worker.handle"]
        (handle,) = response["trace"]
        assert handle["status"] == "error"
