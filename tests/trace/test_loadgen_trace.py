"""Loadgen against a traced server: every 5xx has a persisted trace.

The load report's ``error_trace_ids`` must name exactly the ids a
``--trace-dir`` server persisted as ``.error.trace.json`` files, so an
operator can go from a failed load run to the flame view of each failure
without grepping logs.
"""

from __future__ import annotations

from repro.service.loadgen import LoadgenConfig, run_loadgen
from repro.service.server import BackgroundServer, ServerConfig
from repro.trace.export import read_spans
from repro.trace.sampling import RequestTraceStore


def _run(server, requests=4):
    config = LoadgenConfig(
        port=server.port,
        requests=requests,
        concurrency=2,
        suite="Viper",
        report_path=None,
    )
    return run_loadgen(config)


class TestLoadgenTracing:
    def test_every_5xx_has_a_persisted_error_trace(self, tmp_path, monkeypatch):
        # A deadline no request can meet: every certify expires to 504.
        # The parse delay makes every job outlast it, so a fast worker
        # thread cannot finish before the event loop's deadline fires.
        monkeypatch.setenv("REPRO_STAGE_DELAY", "parse=0.05")
        config = ServerConfig(
            port=0, use_threads=True, jobs=1, quiet=True,
            trace_dir=str(tmp_path), request_timeout=0.0001, drain_grace=0.5,
        )
        with BackgroundServer(config) as server:
            report = _run(server)

        outcomes = report["outcomes"]
        assert outcomes["server_errors"] == outcomes["completed"] > 0
        error_ids = outcomes["error_trace_ids"]
        assert len(error_ids) == outcomes["completed"]

        store = RequestTraceStore(str(tmp_path))
        persisted = set(store.persisted_trace_ids())
        for trace_id in error_ids:
            assert trace_id in persisted
            (path,) = tmp_path.glob(f"{trace_id}.error.trace.json")
            (root,) = [
                s for s in read_spans(str(path)) if s.name == "request"
            ]
            assert root.status == "error"
            assert root.attributes["status"] == 504

    def test_healthy_run_reports_no_error_ids(self):
        config = ServerConfig(port=0, use_threads=True, jobs=1, quiet=True)
        with BackgroundServer(config) as server:
            report = _run(server, requests=2)
        outcomes = report["outcomes"]
        assert outcomes["server_errors"] == 0
        assert outcomes["error_trace_ids"] == []
        assert outcomes["ok"] == outcomes["completed"] == 2
