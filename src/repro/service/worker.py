"""The service worker: one certification job, two cache tiers, fresh kernel.

This module is the process-pool target, following the
:mod:`repro.pipeline.executor` worker discipline: everything the pool
calls is a **module-level, picklable callable**, and per-process state
(the in-memory :class:`~repro.pipeline.cache.ArtifactCache` and the
shared :class:`~repro.service.diskcache.DiskCache`) lives in module
globals initialised by :func:`configure` — the pool passes it as the
``ProcessPoolExecutor`` initializer, and the serial/thread fallbacks call
it in-process.

Per request, :func:`handle_job` resolves artifacts through the tiers:

1. **memory** — the worker's own ``ArtifactCache`` serves the live
   ``TranslationResult`` and the rendered certificate text; the pipeline
   skips translate/generate/render natively (whole-program entries) and
   re-translates only edited method units (per-unit entries).
2. **disk** — on a memory miss, a persisted ``(boogie text, certificate
   text)`` pair is loaded; the Boogie text is re-parsed, a
   ``TranslationResult`` is reconstructed exactly like ``repro check``
   does for the independent-check CLI, and the entry is promoted into the
   memory tier.
3. **unit disk** — when the whole-file entry misses (the file was
   edited), each *method unit* is looked up by its content-addressed key
   (body digest + callee interface digests + options); cached procedure
   and certificate-block texts are spliced together with freshly
   translated ones for the edited units, so one edited method re-runs
   one unit's untrusted work, not the file's.
4. **miss** — the full untrusted pipeline runs and its artifacts are
   written through to every tier (whole-file entry plus one envelope per
   unit).

**In every case the trusted path runs fresh**: the certificate text is
re-parsed and the independent kernel re-derives the verdict, method by
method, per request — incrementality is entirely untrusted.  Cache state
can therefore only cause spurious rejections (upon which the offending
disk entries are quarantined), never a false acceptance — see
``docs/SERVICE.md`` § Trust.

Trust: **untrusted-but-checked** — every artifact this module serves or
rebuilds passes through the fresh reparse+kernel path before an answer
leaves the worker.

When the payload carries a ``traceparent`` header (the server sends one
whenever tracing is enabled), the job runs under a ``worker.handle``
span, per-stage and per-unit spans are derived from the instrumentation
records afterwards, and the whole set travels back in the response's
``trace`` field — the worker never writes trace files itself.  Tracing
is advisory: span derivation happens after the verdict is final and
touches nothing the kernel reads (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Dict, Optional

from ..boogie.parser import parse_boogie_program
from ..boogie.pretty import pretty_boogie_program, pretty_procedure
from ..certification import (
    assemble_certificate_text,
    check_program_certificate,
    generate_method_certificate,
    parse_program_certificate,
    render_method_certificate,
)
from ..frontend import background_boogie_program, translate_method, TranslationOptions
from ..frontend.background import build_background
from ..frontend.translator import TranslationResult
from ..pipeline import (
    ArtifactCache,
    PipelineError,
    PipelineInstrumentation,
    STAGE_NAMES,
)
from ..pipeline.stages import make_context, resume_pipeline
from ..trace import (
    TraceCollector,
    parse_traceparent,
    spans_from_instrumentation,
    start_span,
)
from .admission import RequestLimits
from .diskcache import DiskCache, options_digest

# -- per-process state (set by configure) -----------------------------------

_MEMORY_CACHE: Optional[ArtifactCache] = None
_DISK_CACHE: Optional[DiskCache] = None
_LIMITS: RequestLimits = RequestLimits()


def configure(config: Dict[str, Any]) -> None:
    """(Re)initialise the worker-process state.

    Called once per worker process (pool initializer) and once in-process
    for the serial/thread fallbacks.  A fresh ``ArtifactCache`` is created
    every time, so a restarted server never sees stale in-memory state —
    only the disk tier survives restarts.
    """
    global _MEMORY_CACHE, _DISK_CACHE, _LIMITS
    _MEMORY_CACHE = ArtifactCache(maxsize=int(config.get("memory_cache_size", 256)))
    cache_dir = config.get("cache_dir")
    if cache_dir:
        _DISK_CACHE = DiskCache(
            cache_dir,
            max_bytes=int(config.get("cache_max_bytes", 64 * 1024 * 1024)),
            workers=int(config.get("cache_workers", 1)),
        )
    else:
        _DISK_CACHE = None
    _LIMITS = RequestLimits(
        max_source_bytes=int(config.get("max_source_bytes", RequestLimits.max_source_bytes)),
        max_body_bytes=int(config.get("max_body_bytes", RequestLimits.max_body_bytes)),
        max_batch=int(config.get("max_batch", RequestLimits.max_batch)),
        max_oracle_states=int(config.get("max_oracle_states", RequestLimits.max_oracle_states)),
    )


def _memory_cache() -> ArtifactCache:
    global _MEMORY_CACHE
    if _MEMORY_CACHE is None:  # direct library use without configure()
        _MEMORY_CACHE = ArtifactCache(maxsize=256)
    return _MEMORY_CACHE


def options_from_dict(payload: Optional[Dict[str, Any]]) -> TranslationOptions:
    """Build :class:`TranslationOptions` from a JSON request object."""
    if not payload:
        return TranslationOptions()
    known = {f for f in TranslationOptions.__dataclass_fields__}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(
            f"unknown translation options: {sorted(unknown)}; known: {sorted(known)}"
        )
    return TranslationOptions(**{k: bool(v) for k, v in payload.items()})


# -- response assembly -------------------------------------------------------


#: The pipeline's stages, then the one the worker adds after a verdict:
#: ``store``, the write-through of new artifacts to the disk tier.
_STAGES = STAGE_NAMES + ("store",)


def _stage_seconds(inst: PipelineInstrumentation) -> Dict[str, float]:
    return {
        name: inst.stage_seconds(name)
        for name in _STAGES
        if inst.stage_ran(name)
    }


def _base_response(action: str, inst: PipelineInstrumentation, tier: str) -> Dict[str, Any]:
    response = {
        "ok": False,
        "action": action,
        "cache": tier,
        "status": 200,
        "error": "",
        "error_stage": None,
        "stage_seconds": _stage_seconds(inst),
        "counters": dict(inst.counters),
        "artifacts": inst.artifact_sizes(),
    }
    if inst.unit_records:
        # Method-level hit accounting: which units were reused, from which
        # tier, and which were rebuilt (drives the unit-cache metrics).
        response["unit_cache"] = inst.unit_cache_summary()
    return response


def _diagnostic_response(action: str, inst: PipelineInstrumentation, error: PipelineError) -> Dict[str, Any]:
    response = _base_response(action, inst, "miss")
    response.update(
        status=422,
        error=error.diagnostic.message,
        error_stage=error.diagnostic.stage,
        hint=error.diagnostic.hint,
    )
    if error.diagnostic.code:
        response["code"] = error.diagnostic.code
    findings = getattr(error.diagnostic.cause, "findings", None)
    if findings:
        # Lint rejections ship the full finding list so clients (and the
        # server's per-check counters) see every diagnostic, not just the
        # summary line.
        response["findings"] = [f.to_dict() for f in findings]
    return response


def _run_oracle(translation: TranslationResult, max_states: int) -> Dict[str, Any]:
    from ..certification.oracle import validate_program_semantically

    verdicts = validate_program_semantically(
        translation,
        max_states_per_method=max_states,
        max_viper_paths=400,
        max_boogie_paths=2_000,
    )
    return {
        "ok": all(v.ok for v in verdicts),
        "methods": {v.method: {"ok": v.ok, "detail": v.detail} for v in verdicts},
    }


# -- the job handler ---------------------------------------------------------


def handle_job(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Process one request payload; never raises (errors are structured).

    With a ``traceparent`` in the payload the whole job runs under a
    ``worker.handle`` span (parented to the server's dispatch span), and
    the response gains ``trace`` (span dicts) and ``trace_id`` fields.
    Without one — tracing off — no span object is ever constructed.
    """
    parent = parse_traceparent(payload.pop("traceparent", None))
    dispatched_unix = payload.pop("dispatched_unix", None)
    try:
        if parent is None:
            response, _ = _handle(payload)
            return response
        collector = TraceCollector()
        inst: Optional[PipelineInstrumentation] = None
        with start_span(
            "worker.handle", collector=collector, parent=parent
        ) as span:
            if dispatched_unix is not None:
                # Dispatch-to-start gap = time spent in the pool queue.
                span.attributes["queue_wait_seconds"] = round(
                    max(0.0, time.time() - float(dispatched_unix)), 6
                )
            response, inst = _handle(payload)
            span.attributes["action"] = response.get("action")
            span.attributes["cache"] = response.get("cache")
            if not response.get("ok"):
                span.set_error(str(response.get("error", ""))[:200])
        if inst is not None:
            spans_from_instrumentation(inst, parent=span.context(),
                                       collector=collector)
        response["trace"] = [s.to_dict() for s in collector.spans]
        response["trace_id"] = parent.trace_id
        return response
    except Exception as error:  # pragma: no cover - last-resort containment
        response = {
            "ok": False,
            "action": payload.get("action", "?"),
            "cache": "miss",
            "status": 500,
            "error": f"internal error: {error}",
            "error_stage": None,
            "traceback": traceback.format_exc(limit=8),
            "stage_seconds": {},
            "counters": {},
            "artifacts": {},
        }
        if parent is not None:
            response["trace_id"] = parent.trace_id
        return response


def _handle(
    payload: Dict[str, Any]
) -> "tuple[Dict[str, Any], Optional[PipelineInstrumentation]]":
    """Dispatch one validated job; returns ``(response, instrumentation)``.

    The instrumentation object rides along so :func:`handle_job` can
    derive per-stage/per-unit spans from it; early rejects (bad action,
    empty source, admission limits) carry ``None`` — no pipeline ran.
    """
    action = payload.get("action", "certify")
    if action not in ("certify", "translate"):
        return {
            "ok": False, "action": action, "cache": "miss", "status": 400,
            "error": f"unknown action {action!r}", "error_stage": None,
            "stage_seconds": {}, "counters": {}, "artifacts": {},
        }, None
    source = payload.get("source")
    if not isinstance(source, str) or not source.strip():
        return {
            "ok": False, "action": action, "cache": "miss", "status": 400,
            "error": "request must carry a non-empty 'source' string",
            "error_stage": None, "stage_seconds": {}, "counters": {},
            "artifacts": {},
        }, None
    rejection = _LIMITS.check_source(source)
    if rejection:
        return {
            "ok": False, "action": action, "cache": "miss", "status": 413,
            "error": rejection, "error_stage": None, "stage_seconds": {},
            "counters": {}, "artifacts": {},
        }, None
    try:
        options = options_from_dict(payload.get("options"))
    except (ValueError, TypeError) as error:
        return {
            "ok": False, "action": action, "cache": "miss", "status": 400,
            "error": str(error), "error_stage": None, "stage_seconds": {},
            "counters": {}, "artifacts": {},
        }, None

    inst = PipelineInstrumentation()
    memory = _memory_cache()
    ctx = make_context(
        source, options, instrumentation=inst, cache=memory, wrap_errors=True,
        analyze=bool(payload.get("analyze", True)),
        analysis_strict=True,
    )
    disk_key = (ctx.key[0], options_digest(options))

    # The cheap trusted-input stages always run fresh, and so does the
    # admission fast path: strict static analysis rejects provably-broken
    # programs with a 422 *before* any cache lookup or untrusted stage —
    # a lint-rejected request never reaches translate.
    try:
        resume_pipeline(ctx, upto="analyze")
    except PipelineError as error:
        return _diagnostic_response(action, inst, error), inst

    in_memory = memory.get_translation(ctx.key) is not None
    if action == "translate":
        return _handle_translate(payload, ctx, inst, disk_key, in_memory), inst
    return _handle_certify(payload, ctx, inst, disk_key, in_memory), inst


def _handle_translate(payload, ctx, inst, disk_key, in_memory) -> Dict[str, Any]:
    tier = "memory" if in_memory else "miss"
    if not in_memory and _DISK_CACHE is not None:
        with inst.cache_lookup():
            entry = _DISK_CACHE.load(disk_key)
        if entry is not None and entry.boogie_text:
            inst.increment("cache.disk.hit")
            inst.record_skip("translate", cached=True)
            response = _base_response("translate", inst, "disk")
            response.update(ok=True, boogie=entry.boogie_text)
            return response
        inst.increment("cache.disk.miss")
    try:
        resume_pipeline(ctx, upto="translate")
    except PipelineError as error:
        return _diagnostic_response("translate", inst, error)
    response = _base_response("translate", inst, tier)
    response.update(ok=True, boogie=ctx.boogie_text)
    return response


def _assemble_boogie_text(background, procedure_texts) -> str:
    """Splice the rendered prelude and per-procedure texts into one .bpl.

    Byte-identical to ``pretty_boogie_program`` over the assembled program
    when every procedure text came from ``pretty_procedure`` — which is
    what both the fresh path and the unit envelopes store.
    """
    parts = [pretty_boogie_program(background_boogie_program(background)).rstrip("\n")]
    for text in procedure_texts:
        parts.append("")
        parts.append(text.rstrip("\n"))
    return "\n".join(parts) + "\n"


def _store_units_to_disk(ctx) -> None:
    """Write one envelope per freshly-built unit through to the disk tier."""
    if (
        _DISK_CACHE is None
        or not ctx.unit_keys
        or ctx.translation is None
        or ctx.certificate is None
    ):
        return
    certificates = {cert.method: cert for cert in ctx.certificate.methods}
    for method in ctx.program.methods:
        translated = ctx.translation.methods.get(method.name)
        certificate = certificates.get(method.name)
        if translated is None or certificate is None:
            continue
        _DISK_CACHE.store_unit(
            ctx.unit_keys[method.name],
            method.name,
            {
                "procedure_text": pretty_procedure(translated.procedure),
                "certificate_block": render_method_certificate(certificate),
            },
            depends=ctx.units[method.name].callees,
        )


def _check_served(ctx, inst, boogie_text, certificate_text, background,
                  methods, quarantine):
    """The trusted path over texts a disk tier served: reparse both, run
    the kernel, then promote an accepted result into the memory tier or
    ``quarantine(reason)`` the served entries.

    Returns ``(report, translation)``, or ``None`` when a parser refuses
    a text — corrupt or poisoned past the digest check — so the caller
    falls through to the next tier instead of failing the request.
    """
    try:
        with inst.stage("reparse"):
            boogie_program = parse_boogie_program(boogie_text)
            certificate = parse_program_certificate(certificate_text)
    except Exception as error:
        quarantine(f"unparseable artifact: {error}")
        return None
    translation = TranslationResult(
        viper_program=ctx.program,
        type_info=ctx.type_info,
        background=background,
        boogie_program=boogie_program,
        methods=methods,
        options=ctx.options,
    )
    with inst.stage("check"):
        report = check_program_certificate(translation, certificate)
    ctx.boogie_text = boogie_text
    if report.ok:
        # Promote into the memory tier so the next request in this worker
        # skips the reparse as well.
        ctx.cache.put_translation(ctx.key, translation)
        ctx.cache.put_certificate_text(ctx.key, certificate_text)
    else:
        # A served artifact the kernel refuses is corrupt or poisoned:
        # quarantine it so the next request recomputes.
        quarantine(f"kernel rejected: {report.error}")
    return report, translation


def _certify_from_unit_tier(ctx, inst):
    """Resolve a certify request method-by-method against the disk unit tier.

    Returns ``(report, translation, certificate_text, tier)`` when at
    least one unit envelope was served, or ``None`` to fall through to the
    full pipeline.  Served procedure/certificate texts are *spliced* with
    freshly-translated ones for the edited units; the assembled document
    then goes through the trusted path exactly like a fresh one — reparse
    plus a per-method kernel check, never a cached verdict.
    """
    entries = {}
    served = []
    for method in ctx.program.methods:
        with inst.cache_lookup():
            entry = _DISK_CACHE.load_unit(ctx.unit_keys[method.name])
        if (
            entry is not None
            and entry.method == method.name
            and entry.procedure_text
            and entry.certificate_block
        ):
            entries[method.name] = entry
            served.append(method.name)
            inst.increment("unit_cache.disk.hit")
        else:
            entries[method.name] = None
            inst.increment("unit_cache.disk.miss")
    if not served:
        return None

    background = build_background(ctx.type_info.field_types)
    procedure_texts: Dict[str, str] = {}
    blocks: Dict[str, str] = {}
    fresh: Dict[str, Any] = {}
    rebuilt = []
    for method in ctx.program.methods:
        entry = entries[method.name]
        if entry is not None:
            procedure_texts[method.name] = entry.procedure_text
            blocks[method.name] = entry.certificate_block
            inst.record_unit(method.name, "translate", reused=True, tier="disk")
            inst.record_unit(method.name, "generate", reused=True, tier="disk")
        else:
            rebuilt.append(method)
    if rebuilt:
        with inst.stage("translate"):
            for method in rebuilt:
                start = time.perf_counter()
                translated = translate_method(
                    ctx.program, ctx.type_info, method, ctx.options,
                    background=background,
                )
                fresh[method.name] = translated
                procedure_texts[method.name] = pretty_procedure(translated.procedure)
                inst.record_unit(
                    method.name, "translate", seconds=time.perf_counter() - start
                )
        with inst.stage("generate"):
            for method in rebuilt:
                start = time.perf_counter()
                certificate = generate_method_certificate(fresh[method.name])
                blocks[method.name] = render_method_certificate(certificate)
                inst.record_unit(
                    method.name, "generate", seconds=time.perf_counter() - start
                )
    else:
        inst.record_skip("translate", cached=True)
        inst.record_skip("generate", cached=True)

    with inst.stage("render"):
        boogie_text = _assemble_boogie_text(
            background, [procedure_texts[m.name] for m in ctx.program.methods]
        )
        certificate_text = assemble_certificate_text(
            blocks[m.name] for m in ctx.program.methods
        )

    def quarantine(reason):
        # Any served envelope may be the poisoned one: quarantine them all.
        for name in served:
            _DISK_CACHE.quarantine_unit(ctx.unit_keys[name], reason=reason)

    checked = _check_served(
        ctx, inst, boogie_text, certificate_text, background, fresh, quarantine
    )
    if checked is None:
        return None
    report, translation = checked
    tier = "disk" if not rebuilt else "miss"

    if report.ok:
        # Write the rebuilt units and the assembled file through to disk.
        with inst.stage("store"):
            for method in rebuilt:
                _DISK_CACHE.store_unit(
                    ctx.unit_keys[method.name],
                    method.name,
                    {
                        "procedure_text": procedure_texts[method.name],
                        "certificate_block": blocks[method.name],
                    },
                    depends=ctx.units[method.name].callees,
                )
            _DISK_CACHE.store(
                (ctx.key[0], options_digest(ctx.options)),
                {"boogie_text": boogie_text, "certificate_text": certificate_text},
            )
    return report, translation, certificate_text, tier


def _handle_certify(payload, ctx, inst, disk_key, in_memory) -> Dict[str, Any]:
    tier = "memory" if in_memory else "miss"
    report = None
    translation = None
    certificate_text = None

    if not in_memory and _DISK_CACHE is not None:
        with inst.cache_lookup():
            entry = _DISK_CACHE.load(disk_key)
        checked = None
        if entry is not None and entry.boogie_text and entry.certificate_text:
            # Disk hit: skip the untrusted stages, but *re-derive* the
            # trusted verdict — re-parse both artifacts and run the kernel.
            checked = _check_served(
                ctx, inst, entry.boogie_text, entry.certificate_text,
                build_background(ctx.type_info.field_types), {},
                lambda reason: _DISK_CACHE.quarantine(disk_key, reason=reason),
            )
        if checked is not None:
            report, translation = checked
            certificate_text = entry.certificate_text
            tier = "disk"
            inst.increment("cache.disk.hit")
            for skipped in ("translate", "generate", "render"):
                inst.record_skip(skipped, cached=True)
            # A whole-file hit serves every method unit at once.
            for name in ctx.unit_keys or {}:
                inst.record_unit(name, "translate", reused=True, tier="disk")
                inst.record_unit(name, "generate", reused=True, tier="disk")
        else:
            inst.increment("cache.disk.miss")
            # The whole file missed (it was edited, or its entry was
            # unparseable): resolve method units individually so only the
            # edited units re-run untrusted work.
            if ctx.unit_keys:
                resolved = _certify_from_unit_tier(ctx, inst)
                if resolved is not None:
                    report, translation, certificate_text, tier = resolved

    if report is None:
        try:
            resume_pipeline(ctx, upto="check")
        except PipelineError as error:
            return _diagnostic_response("certify", inst, error)
        report = ctx.report
        translation = ctx.translation
        certificate_text = ctx.certificate_text
        if (
            tier == "miss"
            and report.ok
            and _DISK_CACHE is not None
            and ctx.boogie_text
            and certificate_text
        ):
            with inst.stage("store"):
                _DISK_CACHE.store(
                    disk_key,
                    {"boogie_text": ctx.boogie_text, "certificate_text": certificate_text},
                )
                _store_units_to_disk(ctx)

    response = _base_response("certify", inst, tier)
    response["check_seconds"] = report.check_seconds
    if not report.ok:
        response.update(ok=False, rejected=True, error=report.error)
        return response

    response.update(
        ok=True,
        statement=report.statement(),
        methods={
            name: {
                "rules_checked": method_report.rules_checked,
                "dependencies": list(method_report.dependencies),
            }
            for name, method_report in report.method_reports.items()
        },
    )
    if payload.get("include_certificate"):
        response["certificate"] = certificate_text
    if payload.get("include_boogie"):
        response["boogie"] = ctx.boogie_text
    oracle_states = _LIMITS.clamp_oracle_states(payload.get("oracle_states"))
    if oracle_states and translation is not None:
        response["oracle"] = _run_oracle(translation, oracle_states)
        if not response["oracle"]["ok"]:
            response["ok"] = False
            response["error"] = "semantic oracle disagreement"
    return response
