"""The certification server: an asyncio HTTP/1.1 JSON front door.

Stdlib-only.  The event loop owns connection handling, admission, and
metrics; all pipeline work happens in the persistent
:class:`~repro.service.pool.WorkerPool` so the loop stays responsive
while translations certify across cores.

Endpoints::

    POST /v1/certify    {"source": "...", "options": {...}?,
                         "include_certificate": bool?, "include_boogie": bool?,
                         "oracle_states": int?}
    POST /v1/translate  {"source": "...", "options": {...}?}
    POST /v1/batch      {"requests": [<certify/translate bodies>...]}
    GET  /healthz       liveness + drain state + pool/cache stats
    GET  /metrics       Prometheus text format
    GET  /v1/perf       rolling per-stage timings + baseline drift ratios

Status codes: 200 verdicts (including kernel *rejections* — those are
application results, carried as ``ok: false``), 400 malformed requests,
404 unknown routes, 413 over the source/body limits, 422 pipeline
diagnostics (parse/type/translate errors), 429 + ``Retry-After`` under
backpressure, 503 while draining, 504 per-request deadline expiry.

HTTP support is deliberately minimal but honest: keep-alive with
pipelining-safe pushback, ``Content-Length`` bodies (no chunked
encoding), and cancellation of queued work when the client disconnects
mid-request.

Every ``/v1/certify`` and ``/v1/translate`` response carries a
``trace_id`` (echoed as an ``X-Trace-Id`` header).  With ``--trace-dir``
set the whole request additionally runs under a ``request`` span —
admission, pool dispatch, worker handling, and every pipeline stage and
method unit share that trace — and the :class:`RequestTraceStore`
persists the N slowest plus every errored request as Chrome-loadable
trace files (docs/OBSERVABILITY.md).  Tracing is **advisory**: span
bookkeeping happens around the verdict path, never inside it.

Trust: **untrusted** front door — nothing here is load-bearing for
soundness; verdicts come from the worker's fresh reparse+kernel run.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..trace import (
    RequestTraceStore,
    Span,
    TraceCollector,
    format_traceparent,
    new_trace_id,
)
from .admission import AdmissionController, RequestLimits
from .httpcore import (
    MAX_HEADER_BYTES,
    BadRequest,
    Connection,
    Request,
    json_response,
    read_request,
    write_response,
)
from .metrics import ServiceMetrics
from .pool import PoolConfig, PoolTimeout, WorkerCrash, WorkerPool


@dataclass
class ServerConfig:
    """Static configuration for one :class:`CertificationService`."""

    host: str = "127.0.0.1"
    port: int = 8421
    #: Worker processes (0 = one per CPU, 1 = single in-process thread).
    jobs: Optional[int] = 0
    #: Force the in-process thread pool (single worker semantics).
    use_threads: bool = False
    #: Admission bound on queued + in-flight requests.
    queue_limit: int = 64
    #: Per-request wall-clock deadline, seconds.
    request_timeout: float = 120.0
    #: Recycle worker processes after N dispatched jobs (0 disables).
    recycle_after: int = 500
    #: Disk cache root (None disables the persistent tier).
    cache_dir: Optional[str] = None
    cache_max_bytes: int = 64 * 1024 * 1024
    memory_cache_size: int = 256
    limits: RequestLimits = field(default_factory=RequestLimits)
    #: Grace period for in-flight work during shutdown, seconds.
    drain_grace: float = 10.0
    #: How long the listener stays open *after* drain begins, seconds,
    #: so health probes observe ``draining`` (503 + Retry-After) and a
    #: load balancer can stop sending work before the socket closes.
    drain_notice: float = 0.5
    quiet: bool = True
    #: Directory for persisted request traces (None disables tracing).
    trace_dir: Optional[str] = None
    #: Keep the traces of the N slowest requests on disk.
    trace_sample: int = 10
    #: Additionally persist this fraction of all requests (0.0–1.0),
    #: chosen deterministically by trace-id hash.
    trace_rate: float = 0.0
    #: Salt for the deterministic hash-rate sampler.
    trace_seed: int = 0
    #: A bench history JSONL (``repro bench record`` output); enables the
    #: ``GET /v1/perf`` drift ratios against its per-stage medians and the
    #: ``repro_stage_seconds_baseline_ratio`` gauges.
    perf_baseline: Optional[str] = None
    #: Per-request stage timings kept in the rolling perf window.
    perf_window: int = 256


class CertificationService:
    """The long-running certification-as-a-service server."""

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        limits = self.config.limits
        self.metrics = ServiceMetrics()
        self.admission = AdmissionController(max_pending=self.config.queue_limit)
        self.pool = WorkerPool(
            PoolConfig(
                jobs=self.config.jobs,
                use_threads=self.config.use_threads,
                recycle_after=self.config.recycle_after or None,
                request_timeout=self.config.request_timeout,
                worker_config={
                    "cache_dir": self.config.cache_dir,
                    "cache_max_bytes": self.config.cache_max_bytes,
                    "memory_cache_size": self.config.memory_cache_size,
                    "max_source_bytes": limits.max_source_bytes,
                    "max_body_bytes": limits.max_body_bytes,
                    "max_batch": limits.max_batch,
                    "max_oracle_states": limits.max_oracle_states,
                },
            )
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown = asyncio.Event()
        self._exit_code = 0
        self._started = time.time()
        self._cache_lookups = 0
        self._cache_hits = 0
        self.port: Optional[int] = None
        self.trace_store: Optional[RequestTraceStore] = None
        if self.config.trace_dir:
            self.trace_store = RequestTraceStore(
                self.config.trace_dir,
                capacity=self.config.trace_sample,
                rate=self.config.trace_rate,
                seed=self.config.trace_seed,
            )
        self.perf_window = self._make_perf_window()
        self._register_gauges()

    def _make_perf_window(self) -> "RollingStageWindow":
        """The rolling per-request stage window (advisory, always on).

        The baseline load is best-effort: a missing or corrupt history
        file logs and leaves the window baseline-less (ratios render as
        nan) instead of refusing to serve — perf drift reporting must
        never take certification down.
        """
        from ..perf import HistoryError, RollingStageWindow, load_baseline

        baseline: Dict[str, float] = {}
        info: Dict[str, Any] = {}
        if self.config.perf_baseline:
            try:
                baseline, fingerprint = load_baseline(self.config.perf_baseline)
                info = {
                    "path": self.config.perf_baseline,
                    "fingerprint": fingerprint,
                }
            except (OSError, HistoryError) as error:
                info = {"path": self.config.perf_baseline, "error": str(error)}
                if not self.config.quiet:
                    print(f"perf baseline unavailable: {error}")
        return RollingStageWindow(
            maxlen=self.config.perf_window,
            baseline=baseline,
            baseline_info=info,
        )

    # -- metrics wiring ----------------------------------------------------

    def _register_gauges(self) -> None:
        m = self.metrics
        m.register_gauge(
            "repro_queue_depth", lambda: self.admission.queue_depth,
            "Admitted requests waiting for a worker.",
        )
        m.register_gauge(
            "repro_in_flight", lambda: self.admission.in_flight,
            "Requests currently executing in the worker pool.",
        )
        m.register_gauge(
            "repro_pending", lambda: self.admission.pending,
            "Admitted requests (queued + in flight).",
        )
        m.register_gauge(
            "repro_cache_hit_rate", self._hit_rate,
            "Fraction of certify/translate lookups served by a cache tier.",
        )
        m.register_gauge(
            "repro_pool_workers", lambda: self.pool.workers,
            "Configured worker count.",
        )
        m.register_gauge(
            "repro_uptime_seconds", lambda: time.time() - self._started,
            "Seconds since the service started.",
        )
        m.register_gauge(
            "repro_draining", lambda: 1.0 if self.admission.draining else 0.0,
            "1 while the service is draining for shutdown.",
        )
        for stage in sorted(self.perf_window.baseline):
            m.register_gauge(
                "repro_stage_seconds_baseline_ratio",
                (lambda s=stage: self.perf_window.ratio(s)),
                "Rolling median stage seconds over the recorded baseline "
                "median (nan = no window data yet).",
                labels={"stage": stage},
            )

    def _hit_rate(self) -> float:
        if not self._cache_lookups:
            return 0.0
        return self._cache_hits / self._cache_lookups

    def _note_result(self, endpoint: str, response: Dict[str, Any]) -> None:
        tier = response.get("cache", "miss")
        self._cache_lookups += 1
        if tier != "miss":
            self._cache_hits += 1
        self.metrics.inc(
            "repro_cache_requests_total", labels={"tier": tier},
            help="Cache tier outcomes per request (memory/disk/miss).",
        )
        self.metrics.record_stage_seconds(response.get("stage_seconds", {}))
        self.perf_window.observe(response.get("stage_seconds", {}))
        self.metrics.record_worker_counters(response.get("counters", {}))
        unit_cache = response.get("unit_cache")
        if unit_cache:
            # Method-level hit accounting: one count per unit, labelled by
            # the tier that served it ("fresh" = rebuilt).
            for unit_tier, count in unit_cache.get("tiers", {}).items():
                self.metrics.inc(
                    "repro_unit_cache_hits_total",
                    amount=float(count),
                    labels={"tier": unit_tier},
                    help="Method units served per cache tier (fresh = rebuilt).",
                )
            self.metrics.inc(
                "repro_units_rebuilt_total",
                amount=float(unit_cache.get("rebuilt", 0)),
                help="Method units whose untrusted stages were re-run.",
            )
        verdict = "ok" if response.get("ok") else (
            "rejected" if response.get("rejected") else "error"
        )
        self.metrics.inc(
            "repro_verdicts_total", labels={"endpoint": endpoint, "verdict": verdict},
            help="Application verdicts per endpoint.",
        )
        if response.get("error_stage") == "analyze":
            # The admission fast path turned the request away before any
            # untrusted stage ran.
            self.metrics.inc(
                "repro_lint_rejections_total",
                help="Requests rejected at admission by the static analyzer.",
            )
            for finding in response.get("findings", ()):
                code = finding.get("code")
                if code:
                    self.metrics.inc(
                        "repro_lint_findings_total", labels={"code": code},
                        help="Findings on lint-rejected requests, by check ID.",
                    )

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> int:
        """Bind, start the pool, and return the actual listening port."""
        self.pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._log(f"repro.service listening on http://{self.config.host}:{self.port} "
                  f"(pool={self.pool.mode}×{self.pool.workers}, "
                  f"cache={self.config.cache_dir or 'memory-only'})")
        return self.port

    def request_shutdown(self, exit_code: int = 0) -> None:
        """Initiate a graceful drain (signal handlers call this)."""
        self._exit_code = exit_code
        self._shutdown.set()

    async def serve_until_shutdown(self) -> int:
        """Block until shutdown is requested, then drain and clean up."""
        await self._shutdown.wait()
        self._log("repro.service draining…")
        self.admission.begin_drain()
        if self.config.drain_notice > 0 and self._server is not None:
            # Advertise the drain before closing the socket: health
            # probes landing in this window see 503 + Retry-After, so a
            # load balancer stops sending new work instead of eating resets.
            await asyncio.sleep(self.config.drain_notice)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        drained = await self.admission.wait_idle(self.config.drain_grace)
        if not drained:
            self._log(f"drain grace ({self.config.drain_grace}s) expired with "
                      f"{self.admission.pending} request(s) outstanding")
        self.pool.shutdown(wait=False)
        self._log(f"repro.service stopped (exit {self._exit_code})")
        return self._exit_code

    def _log(self, message: str) -> None:
        if not self.config.quiet:
            print(message, flush=True)

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = Connection(reader)
        try:
            while True:
                try:
                    request = await self._read_request(conn)
                except BadRequest as error:
                    await self._write_json(
                        writer, error.status, {"ok": False, "error": str(error)},
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break
                response = await self._dispatch_watching_disconnect(request, conn)
                if response is None:  # client went away mid-request
                    break
                status, payload, content_type, headers = response
                keep_alive = request.keep_alive and not self.admission.draining
                try:
                    await self._write_response(
                        writer, status, payload, content_type, headers, keep_alive
                    )
                except (ConnectionResetError, BrokenPipeError):
                    break
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(self, conn: Connection) -> Optional[Request]:
        return await read_request(
            conn, self.config.limits.max_body_bytes, MAX_HEADER_BYTES
        )

    async def _dispatch_watching_disconnect(
        self, request: Request, conn: Connection
    ) -> Optional[Tuple[int, bytes, str, Dict[str, str]]]:
        """Dispatch, cancelling the work if the client disconnects.

        While the handler runs we watch the socket for one byte: EOF means
        the client hung up (cancel + stop); actual data is the start of a
        pipelined request and is pushed back for the next read.
        """
        job = asyncio.ensure_future(self._dispatch(request))
        watch = asyncio.ensure_future(conn.reader.read(1))
        await asyncio.wait({job, watch}, return_when=asyncio.FIRST_COMPLETED)

        if (
            watch.done()
            and not watch.cancelled()
            and not job.done()
            and watch.result() == b""
        ):
            # EOF before the response: the client went away — cancel the
            # queued/awaited pool work instead of finishing it for nobody.
            job.cancel()
            try:
                await job
            except asyncio.CancelledError:
                pass
            except Exception:  # pragma: no cover - cancelled mid-raise
                pass
            self.metrics.inc(
                "repro_disconnects_total",
                help="Requests abandoned by the client before completion.",
            )
            return None

        # Settle the watcher *before* the next socket read (two readers on
        # one StreamReader is a RuntimeError) and keep any pipelined byte.
        if not watch.done():
            watch.cancel()
        try:
            data = await watch
        except (asyncio.CancelledError, ConnectionError, OSError):
            data = b""
        if data:
            conn.push_back(data)
        return await job

    # -- routing -----------------------------------------------------------

    async def _dispatch(self, request: Request) -> Tuple[int, bytes, str, Dict[str, str]]:
        started = time.perf_counter()
        route = (request.method, request.path)
        try:
            if route == ("GET", "/healthz"):
                result = self._handle_healthz()
            elif route == ("GET", "/metrics"):
                if "application/openmetrics-text" in request.headers.get("accept", ""):
                    # OpenMetrics negotiation: only this variant carries
                    # ` # {trace_id="..."} value` exemplars on histogram
                    # buckets; the default 0.0.4 text stays exemplar-free.
                    result = (
                        200,
                        self.metrics.render(exemplars=True).encode("utf-8"),
                        "application/openmetrics-text; version=1.0.0; charset=utf-8",
                        {},
                    )
                else:
                    result = (200, self.metrics.render().encode("utf-8"),
                              "text/plain; version=0.0.4; charset=utf-8", {})
            elif route == ("POST", "/v1/certify"):
                result = await self._handle_single(request, "certify")
            elif route == ("POST", "/v1/translate"):
                result = await self._handle_single(request, "translate")
            elif route == ("GET", "/v1/perf"):
                result = self._json(200, self.perf_window.snapshot())
            elif route == ("POST", "/v1/batch"):
                result = await self._handle_batch(request)
            elif request.path in ("/healthz", "/metrics", "/v1/certify",
                                  "/v1/translate", "/v1/batch", "/v1/perf"):
                result = self._json(405, {"ok": False, "error": "method not allowed"})
            else:
                result = self._json(404, {"ok": False, "error": f"no route {request.path}"})
        except PoolTimeout as error:
            result = self._json(504, {"ok": False, "error": str(error)})
        except asyncio.CancelledError:
            raise
        except Exception as error:  # pragma: no cover - last-resort containment
            result = self._json(500, {"ok": False, "error": f"internal error: {error}"})
        status = result[0]
        elapsed = time.perf_counter() - started
        self.metrics.inc(
            "repro_requests_total",
            labels={"endpoint": request.path, "status": str(status)},
            help="HTTP requests by endpoint and status.",
        )
        self.metrics.observe(
            "repro_request_seconds", elapsed, labels={"endpoint": request.path},
            help="End-to-end request latency in seconds.",
            exemplar=result[3].get("X-Trace-Id"),
        )
        return result

    def _json(
        self, status: int, payload: Dict[str, Any], headers: Optional[Dict[str, str]] = None
    ) -> Tuple[int, bytes, str, Dict[str, str]]:
        return json_response(status, payload, headers)

    def _parse_body(self, request: Request) -> Dict[str, Any]:
        if not request.body:
            raise BadRequest("request body must be a JSON object")
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise BadRequest(f"invalid JSON body: {error}") from None
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        return payload

    def _backpressure(self) -> Tuple[int, bytes, str, Dict[str, str]]:
        if self.admission.draining:
            self.metrics.inc("repro_rejected_total", labels={"reason": "draining"},
                             help="Requests refused at admission.")
            return self._json(503, {"ok": False, "error": "service is draining"},
                              {"Retry-After": "1"})
        self.metrics.inc("repro_rejected_total", labels={"reason": "backpressure"},
                         help="Requests refused at admission.")
        retry_after = max(1, int(self.admission.retry_after))
        return self._json(
            429,
            {"ok": False,
             "error": f"queue full ({self.admission.pending}/{self.admission.max_pending})",
             "retry_after": retry_after},
            {"Retry-After": str(retry_after)},
        )

    async def _handle_single(
        self, request: Request, action: str
    ) -> Tuple[int, bytes, str, Dict[str, str]]:
        try:
            payload = self._parse_body(request)
        except BadRequest as error:
            return self._json(error.status, {"ok": False, "error": str(error)})
        payload["action"] = action
        # Every single-document request gets a trace id (response field +
        # X-Trace-Id header); spans are collected only with --trace-dir.
        trace_id = new_trace_id()
        collector: Optional[TraceCollector] = None
        root: Optional[Span] = None
        pool_span: Optional[Span] = None
        if self.trace_store is not None:
            collector = TraceCollector()
            root = Span.start(
                "request", trace_id=trace_id,
                attributes={"endpoint": request.path, "action": action},
            )
            admit_span = Span.start("admission", parent=root.context())
        admitted = self.admission.try_admit()
        if root is not None:
            admit_span.end()
            collector.add(admit_span)
        if not admitted:
            result = self._backpressure()
            if root is not None:
                self._finish_trace(root, collector, int(result[0]), {})
            return result
        try:
            if root is not None:
                pool_span = Span.start("pool.submit", parent=root.context())
                payload["traceparent"] = format_traceparent(pool_span.context())
            response = await self._execute(payload)
        finally:
            self.admission.release()
        if root is not None:
            pool_span.end()
            if int(response.get("status", 200)) == 504:
                pool_span.set_error("pool deadline expired")
            collector.add(pool_span)
            # Worker-side spans (worker.handle, stage.*, unit.*) travel
            # back inside the response; fold them into this trace.
            for item in response.pop("trace", None) or ():
                collector.add(Span.from_dict(item))
        self._note_result(request.path, response)
        response["trace_id"] = trace_id
        status = int(response.pop("status", 200))
        if root is not None:
            self._finish_trace(root, collector, status, response)
        return self._json(status, response, {"X-Trace-Id": trace_id})

    def _finish_trace(
        self,
        root: Span,
        collector: TraceCollector,
        status: int,
        response: Dict[str, Any],
    ) -> None:
        """Close the root span and offer the trace to the persistence store."""
        root.attributes["status"] = status
        if status >= 500:
            root.set_error(
                str(response.get("error", ""))[:200] or f"HTTP {status}"
            )
        root.end()
        collector.add(root)
        for reason in self.trace_store.offer(root, collector.spans):
            self.metrics.inc(
                "repro_traces_persisted_total", labels={"reason": reason},
                help="Request traces persisted to --trace-dir, by keep reason.",
            )

    async def _handle_batch(
        self, request: Request
    ) -> Tuple[int, bytes, str, Dict[str, str]]:
        try:
            payload = self._parse_body(request)
        except BadRequest as error:
            return self._json(error.status, {"ok": False, "error": str(error)})
        items = payload.get("requests")
        if not isinstance(items, list):
            return self._json(400, {"ok": False, "error": "'requests' must be a list"})
        limit_error = self.config.limits.check_batch(len(items))
        if limit_error:
            return self._json(413, {"ok": False, "error": limit_error})
        if not self.admission.try_admit(weight=len(items)):
            return self._backpressure()
        try:
            jobs = []
            for item in items:
                job = dict(item) if isinstance(item, dict) else {}
                job.setdefault("action", "certify")
                jobs.append(self._execute(job))
            responses = await asyncio.gather(*jobs)
        finally:
            self.admission.release(weight=len(items))
        for response in responses:
            self._note_result("/v1/batch", response)
            response.pop("status", None)
        return self._json(
            200,
            {"ok": all(r.get("ok") for r in responses),
             "count": len(responses), "results": responses},
        )

    async def _execute(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self.admission.enter_flight()
        try:
            return await self.pool.submit(payload)
        except PoolTimeout as error:
            return {"ok": False, "action": payload.get("action", "?"),
                    "cache": "miss", "status": 504, "error": str(error),
                    "error_stage": None, "stage_seconds": {}, "counters": {},
                    "artifacts": {}}
        except WorkerCrash as error:
            # A worker died mid-job.  The pool already recycled itself;
            # this request fails cleanly (5xx) and the next one succeeds.
            self.metrics.inc(
                "repro_worker_crashes_total",
                help="Pool workers that died mid-job (pool recycled).",
            )
            return {"ok": False, "action": payload.get("action", "?"),
                    "cache": "miss", "status": 500, "error": str(error),
                    "error_stage": None, "stage_seconds": {}, "counters": {},
                    "artifacts": {}}
        finally:
            self.admission.exit_flight()

    def _handle_healthz(self) -> Tuple[int, bytes, str, Dict[str, str]]:
        draining = self.admission.draining
        payload = {
            "status": "draining" if draining else "ok",
            "uptime_seconds": round(time.time() - self._started, 3),
            "pool": {"mode": self.pool.mode, "workers": self.pool.workers,
                     **self.pool.stats.to_dict()},
            "admission": {
                "pending": self.admission.pending,
                "in_flight": self.admission.in_flight,
                "queue_depth": self.admission.queue_depth,
                "limit": self.admission.max_pending,
            },
            "cache": {
                "lookups": self._cache_lookups,
                "hits": self._cache_hits,
                "hit_rate": round(self._hit_rate(), 4),
                "disk_dir": self.config.cache_dir,
            },
        }
        if draining:
            # Retry-After tells pollers when to look again; a load
            # balancer's health probe takes the instance out of rotation.
            return self._json(503, payload, {"Retry-After": "1"})
        return self._json(200, payload)

    # -- response writing --------------------------------------------------

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str,
        headers: Dict[str, str],
        keep_alive: bool,
    ) -> None:
        await write_response(writer, status, body, content_type, headers, keep_alive)

    async def _write_json(
        self, writer: asyncio.StreamWriter, status: int,
        payload: Dict[str, Any], keep_alive: bool,
    ) -> None:
        _status, body, content_type, headers = self._json(status, payload)
        await self._write_response(writer, status, body, content_type, headers, keep_alive)


# ---------------------------------------------------------------------------
# Entry points: blocking CLI server and the background test/library server.
# ---------------------------------------------------------------------------


async def _amain(config: ServerConfig) -> int:
    service = CertificationService(config)
    await service.start()
    loop = asyncio.get_running_loop()
    installed = []
    for signum, exit_code in ((signal.SIGINT, 130), (signal.SIGTERM, 143)):
        try:
            loop.add_signal_handler(signum, service.request_shutdown, exit_code)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-Unix
            pass
    try:
        return await service.serve_until_shutdown()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)


def run_server(config: Optional[ServerConfig] = None) -> int:
    """Run the server until SIGINT (exit 130) or SIGTERM (exit 143).

    The shutdown path drains in-flight work within ``drain_grace``
    seconds; disk-cache entries are written through synchronously during
    operation, so nothing is lost on exit.
    """
    return asyncio.run(_amain(config or ServerConfig(quiet=False)))


class BackgroundServer:
    """Run a :class:`CertificationService` on a background thread.

    For tests and embedding::

        with BackgroundServer(ServerConfig(port=0, use_threads=True)) as server:
            client = ServiceClient(port=server.port)
            ...
    """

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig(port=0)
        self.service: Optional[CertificationService] = None
        self.port: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._startup_error: Optional[BaseException] = None

    def __enter__(self) -> "BackgroundServer":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("background server did not start within 30s")
        if self._startup_error is not None:
            raise RuntimeError("background server failed to start") from self._startup_error
        return self

    def _run(self) -> None:
        async def body() -> int:
            self.service = CertificationService(self.config)
            self._loop = asyncio.get_running_loop()
            try:
                self.port = await self.service.start()
            except BaseException as error:
                self._startup_error = error
                self._ready.set()
                raise
            self._ready.set()
            return await self.service.serve_until_shutdown()

        try:
            asyncio.run(body())
        except BaseException:
            self._ready.set()

    def stop(self) -> None:
        if self._loop is not None and self.service is not None:
            try:
                self._loop.call_soon_threadsafe(self.service.request_shutdown, 0)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None
