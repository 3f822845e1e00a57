"""The staged pipeline: the single source of truth for the end-to-end flow.

Trust: **untrusted-but-checked** — the graph may cache, skip, or misroute
the untrusted stages; ``reparse`` and ``check`` are never cached and
never skipped, so every verdict is the kernel's fresh judgement.

The paper's workflow is a fixed sequence::

    parse → desugar → typecheck → units → analyze → translate → generate
          → render → reparse → check

* ``parse``      — Viper source text → Viper AST,
* ``desugar``    — loops / ``old()`` / ``new`` / complex call arguments are
  lowered into the core subset (no-ops when the features are absent),
* ``typecheck``  — scope and type analysis (:class:`ProgramTypeInfo`),
* ``units``      — the program is split into per-method *compilation
  units* with content-addressed cache keys (:mod:`repro.pipeline.units`),
* ``analyze``    — the advisory static-analysis pass (:mod:`repro.analysis`)
  over the *pre-desugaring* AST snapshot; skippable (``ctx.analyze``),
  never cached, and only rejecting in strict mode (``ctx.analysis_strict``,
  used by the service's admission fast path),
* ``translate``  — the instrumented Viper-to-Boogie translation
  (**untrusted**, cacheable *per unit*),
* ``generate``   — the tactic builds each method's certificate from hints
  (**untrusted**, cacheable *per unit*),
* ``render``     — per-method certificate blocks (cached or fresh) are
  assembled into the certificate document,
* ``reparse``    — the text is parsed back (first step of the trusted path),
* ``check``      — the independent kernel validates every method's
  certificate and assembles the final theorem (**trusted**, never cached:
  the kernel re-checks every unit on every run, however it was served).

Every stage is a named, individually-invokable unit that reads and writes
typed artifacts on a shared :class:`PipelineContext`, runs under
:class:`~repro.pipeline.instrumentation.PipelineInstrumentation` timing,
and may be served from the content-addressed
:class:`~repro.pipeline.cache.ArtifactCache`.  All entry points —
:func:`repro.translate_source`, :func:`repro.certify_source`, the CLI, and
the evaluation harness — are thin wrappers over :func:`run_pipeline`; no
other module spells out the stage sequence.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set, Tuple

from ..certification import (
    assemble_certificate_text,
    check_program_certificate,
    generate_method_certificate,
    parse_program_certificate,
    render_method_certificate,
)
from ..certification.prooftree import ProgramCertificate
from ..frontend import (
    assemble_translation,
    translate_method,
    TranslationOptions,
    TranslationResult,
)
from ..viper import (
    check_program,
    desugar_loops,
    desugar_new,
    desugar_old,
    hoist_call_args,
    parse_program,
    program_has_complex_call_args,
    program_has_loops,
    program_has_new,
    program_has_old,
)
from ..viper.pretty import count_loc, count_nonblank
from .cache import ArtifactCache, cache_key, UnitEntry
from .diagnostics import wrap_exception, wrappable_exceptions
from .instrumentation import PipelineInstrumentation
from .units import extract_units, unit_keys as compute_unit_keys


@dataclass
class PipelineContext:
    """The shared state threaded through the stage graph.

    Inputs (``source``, ``options``, configuration) are set up-front; each
    stage fills in the artifact it *provides* (see :data:`STAGES`).
    """

    # inputs / configuration
    source: str
    options: TranslationOptions
    instrumentation: PipelineInstrumentation
    cache: Optional[ArtifactCache] = None
    #: Wrap substrate exceptions into PipelineError diagnostics?
    wrap_errors: bool = False
    #: Run the advisory static-analysis stage?  (Gates the stage; when
    #: False it is recorded as skipped, like a cache hit.)
    analyze: bool = True
    #: Reject on error-severity findings (the service's admission mode)?
    #: The default keeps library/CLI behaviour advisory: findings are
    #: collected but never block certification — the kernel's verdict,
    #: not the linter's, is the trusted one.
    analysis_strict: bool = False

    # artifacts, in stage order
    program: object = None              # parse / desugar → viper Program
    parsed_program: object = None       # parse → pre-desugaring snapshot
    findings: object = None             # analyze → List[analysis.Finding]
    type_info: object = None            # typecheck → ProgramTypeInfo
    units: object = None                # units → Dict[str, MethodUnit]
    unit_keys: object = None            # units → Dict[str, UnitKey]
    translation: Optional[TranslationResult] = None   # translate
    boogie_text: Optional[str] = None   # translate (pretty-printed .bpl)
    certificate: object = None          # generate → ProgramCertificate
    certificate_text: Optional[str] = None            # render (.cert)
    reparsed_certificate: object = None               # reparse
    report: object = None               # check → TheoremReport

    completed: Set[str] = field(default_factory=set)
    #: Unit cache entries probed once per run (memoised by
    #: :func:`_probe_units` so hit/miss counters fire exactly once).
    _unit_entries: object = None

    @property
    def key(self):
        """The content-addressed cache key of this invocation."""
        return cache_key(self.source, self.options)


# ---------------------------------------------------------------------------
# Stage implementations.  Each takes the context, reads its inputs, and
# stores the artifact it provides.  Timing wraps the body only; artifact
# *size* accounting happens outside the timed section so stage seconds stay
# comparable with the paper's measurements.
# ---------------------------------------------------------------------------


def _stage_parse(ctx: PipelineContext) -> None:
    ctx.program = parse_program(ctx.source)
    # Keep the pre-desugaring AST for the analyze stage: findings must
    # cite the source the programmer wrote, not the lowered core forms.
    ctx.parsed_program = ctx.program


def _stage_desugar(ctx: PipelineContext) -> None:
    # Only the parser builds ``While``, ``NewStmt`` and ``OldExpr`` nodes,
    # and only from the keywords ``while``, ``new`` and ``old``: without
    # the keyword in the source, the walk would find no node.
    source, program = ctx.source, ctx.program
    if "while" in source and program_has_loops(program):
        program = desugar_loops(program)
    if "new" in source and program_has_new(program):
        program = desugar_new(program)
    if "old" in source and program_has_old(program):
        program = desugar_old(program)
    if program_has_complex_call_args(program):
        program = hoist_call_args(program)
    ctx.program = program


def _stage_typecheck(ctx: PipelineContext) -> None:
    ctx.type_info = check_program(ctx.program)


def _stage_analyze(ctx: PipelineContext) -> None:
    # Imported lazily: the analysis package is an optional, advisory layer
    # on top of the pipeline, never a load-bearing dependency of it.
    from ..analysis.checks import analyze_program
    from ..analysis.report import AnalysisError, apply_suppressions

    program = ctx.parsed_program if ctx.parsed_program is not None else ctx.program
    findings = analyze_program(program)
    findings, _ = apply_suppressions(findings, ctx.source)
    ctx.findings = findings
    if ctx.analysis_strict and any(f.severity == "error" for f in findings):
        raise AnalysisError(findings)


def _stage_units(ctx: PipelineContext) -> None:
    ctx.units = extract_units(ctx.program)
    ctx.unit_keys = compute_unit_keys(ctx.units, ctx.program, ctx.options)


def _probe_units(ctx: PipelineContext) -> Dict[str, Optional[UnitEntry]]:
    """Look every unit up in the cache, once per run (memoised).

    The probe is shared by the translate/generate/render stages so the
    ``unit_cache.hit``/``unit_cache.miss`` counters fire exactly once per
    unit per pipeline invocation.
    """
    if ctx._unit_entries is not None:
        return ctx._unit_entries
    if ctx.cache is None:  # nothing to look up, so no probe to time
        ctx._unit_entries = dict.fromkeys(ctx.unit_keys or {})
        return ctx._unit_entries
    entries: Dict[str, Optional[UnitEntry]] = {}
    inst = ctx.instrumentation
    # The probe's wall-time is cache *lookup*, not stage work: it accrues
    # to the enclosing stage record's cache_lookup_seconds so a warm run
    # does not report lookup latency as translate time (the split that
    # keeps `bench --json` stage numbers and trace spans in agreement).
    with inst.cache_lookup():
        for name, key in (ctx.unit_keys or {}).items():
            entry = ctx.cache.get_unit(key)
            entries[name] = entry
            inst.increment("unit_cache.hit" if entry is not None else "unit_cache.miss")
    ctx._unit_entries = entries
    return entries


def _stage_translate(ctx: PipelineContext) -> None:
    """Translate method-by-method, serving unchanged units from the cache.

    A unit is served when its content-addressed key — body digest plus the
    interface digests of its transitive callees plus options — is present;
    a body-only edit of a callee therefore re-translates exactly the
    edited unit, while a spec edit re-keys the unit and all its callers.
    """
    inst = ctx.instrumentation
    entries = _probe_units(ctx)
    methods: Dict[str, object] = {}
    for method in ctx.program.methods:
        entry = entries.get(method.name)
        if entry is not None and entry.translated is not None:
            methods[method.name] = entry.translated
            inst.record_unit(method.name, "translate", reused=True, tier="memory")
            continue
        start = time.perf_counter()
        translated = translate_method(ctx.program, ctx.type_info, method, ctx.options)
        inst.record_unit(method.name, "translate", seconds=time.perf_counter() - start)
        methods[method.name] = translated
        if ctx.cache is not None and ctx.unit_keys:
            ctx.cache.put_unit(ctx.unit_keys[method.name], method.name,
                               translated=translated)
    ctx.translation = assemble_translation(
        ctx.program, ctx.type_info, methods, ctx.options
    )


def _stage_generate(ctx: PipelineContext) -> None:
    """Generate per-method certificates, reusing cached units."""
    inst = ctx.instrumentation
    entries = _probe_units(ctx)
    result = ctx.translation
    certificates: Dict[str, object] = {}
    for method in result.viper_program.methods:
        entry = entries.get(method.name)
        if entry is not None and entry.certificate is not None:
            certificates[method.name] = entry.certificate
            inst.record_unit(method.name, "generate", reused=True, tier="memory")
            continue
        start = time.perf_counter()
        certificate = generate_method_certificate(result.methods[method.name])
        inst.record_unit(method.name, "generate", seconds=time.perf_counter() - start)
        certificates[method.name] = certificate
        if ctx.cache is not None and ctx.unit_keys:
            ctx.cache.put_unit(ctx.unit_keys[method.name], method.name,
                               certificate=certificate)
    ctx.certificate = ProgramCertificate(
        methods=tuple(
            certificates[m.name] for m in result.viper_program.methods
        )
    )


def _stage_render(ctx: PipelineContext) -> None:
    """Assemble the certificate document from per-method blocks."""
    entries = _probe_units(ctx)
    blocks = []
    for method_cert in ctx.certificate.methods:
        entry = entries.get(method_cert.method)
        if entry is not None and entry.certificate_block is not None:
            blocks.append(entry.certificate_block)
            continue
        block = render_method_certificate(method_cert)
        blocks.append(block)
        if ctx.cache is not None and ctx.unit_keys:
            ctx.cache.put_unit(
                ctx.unit_keys[method_cert.method],
                method_cert.method,
                certificate_block=block,
            )
    ctx.certificate_text = assemble_certificate_text(blocks)


def _stage_reparse(ctx: PipelineContext) -> None:
    ctx.reparsed_certificate = parse_program_certificate(ctx.certificate_text)


def _stage_check(ctx: PipelineContext) -> None:
    certificate = (
        ctx.reparsed_certificate
        if ctx.reparsed_certificate is not None
        else ctx.certificate
    )
    ctx.report = check_program_certificate(ctx.translation, certificate)


@dataclass(frozen=True)
class Stage:
    """A named, timed, individually-invokable pipeline unit."""

    name: str
    #: The PipelineContext attribute this stage fills in.
    provides: str
    run: Callable[[PipelineContext], None]
    #: Can this stage's artifact be served from the ArtifactCache?
    cacheable: bool = False
    #: Name of a boolean PipelineContext attribute gating the stage; when
    #: it is False the stage is recorded as skipped instead of run.
    gate: Optional[str] = None


#: The stage graph, in execution order — the one place it is spelled out.
STAGES: Tuple[Stage, ...] = (
    Stage("parse", "program", _stage_parse),
    Stage("desugar", "program", _stage_desugar),
    Stage("typecheck", "type_info", _stage_typecheck),
    Stage("units", "units", _stage_units),
    Stage("analyze", "findings", _stage_analyze, gate="analyze"),
    Stage("translate", "translation", _stage_translate, cacheable=True),
    Stage("generate", "certificate", _stage_generate, cacheable=True),
    Stage("render", "certificate_text", _stage_render, cacheable=True),
    Stage("reparse", "reparsed_certificate", _stage_reparse),
    Stage("check", "report", _stage_check),
)

STAGE_NAMES: Tuple[str, ...] = tuple(stage.name for stage in STAGES)

_STAGE_BY_NAME = {stage.name: stage for stage in STAGES}

#: Built once: stage_index is on the cache-probe hot path, and a
#: tuple.index() scan per probe is O(stages) for no benefit.
_STAGE_INDEX: Dict[str, int] = {name: i for i, name in enumerate(STAGE_NAMES)}


def stage_index(name: str) -> int:
    """The position of a stage in the graph (raises on unknown names)."""
    try:
        return _STAGE_INDEX[name]
    except KeyError:
        raise KeyError(
            f"unknown pipeline stage {name!r}; expected one of {STAGE_NAMES}"
        ) from None


# ---------------------------------------------------------------------------
# Cache integration.  Translation and generation are pure functions of
# (source, options); their artifacts are stored/served content-addressed.
# The trusted reparse/check path is never cached (see cache.py).
# ---------------------------------------------------------------------------


def _try_cached(ctx: PipelineContext, stage: Stage) -> bool:
    """Serve a cacheable stage from the cache; returns True on a hit."""
    if ctx.cache is None or not stage.cacheable:
        return False
    inst = ctx.instrumentation
    if stage.name == "translate":
        cached = ctx.cache.get_translation(ctx.key)
        if cached is None:
            inst.increment("cache.miss")
            return False
        ctx.translation = cached
        inst.increment("cache.hit")
        inst.record_skip("translate", cached=True)
        # A whole-program hit is every unit reused at once.
        for name in ctx.unit_keys or {}:
            inst.record_unit(name, "translate", reused=True, tier="memory")
        return True
    if stage.name == "generate":
        cached = ctx.cache.get_certificate_text(ctx.key)
        if cached is None:
            inst.increment("cache.miss")
            return False
        # The rendered text subsumes both generate and render.
        ctx.certificate_text = cached
        inst.increment("cache.hit")
        inst.record_skip("generate", cached=True)
        for name in ctx.unit_keys or {}:
            inst.record_unit(name, "generate", reused=True, tier="memory")
        return True
    if stage.name == "render":
        if ctx.certificate_text is not None and ctx.certificate is None:
            # generate was served from the cache; nothing left to render.
            inst.record_skip("render", cached=True)
            return True
        return False
    return False


def _store_cached(ctx: PipelineContext, stage: Stage) -> None:
    if ctx.cache is None:
        return
    if stage.name == "translate" and ctx.translation is not None:
        ctx.cache.put_translation(ctx.key, ctx.translation)
    elif stage.name == "render" and ctx.certificate_text is not None:
        ctx.cache.put_certificate_text(ctx.key, ctx.certificate_text)


# ---------------------------------------------------------------------------
# Artifact-size accounting (Viper LoC, Boogie LoC, certificate LoC) — the
# sizes the paper's tables report, attributed to the producing stage.
# ---------------------------------------------------------------------------


def _record_artifacts(ctx: PipelineContext, stage: Stage) -> None:
    inst = ctx.instrumentation
    if stage.name == "parse":
        inst.artifact("parse", "viper_loc", count_loc(ctx.source))
        inst.artifact("parse", "methods", len(ctx.program.methods))
    elif stage.name == "translate" and ctx.translation is not None:
        if ctx.boogie_text is None:
            from ..boogie.pretty import pretty_boogie_program

            ctx.boogie_text = pretty_boogie_program(ctx.translation.boogie_program)
        inst.artifact("translate", "boogie_loc", count_loc(ctx.boogie_text))
    elif stage.name in ("render", "generate") and ctx.certificate_text is not None:
        cert_loc = count_nonblank(ctx.certificate_text.splitlines())
        inst.artifact(stage.name, "cert_loc", cert_loc)


# ---------------------------------------------------------------------------
# Execution.
# ---------------------------------------------------------------------------

#: Parsed ``REPRO_STAGE_DELAY`` cache, keyed by the raw env value so tests
#: that monkeypatch the variable mid-process are picked up.
_STAGE_DELAY_CACHE: Tuple[Optional[str], Dict[str, float]] = (None, {})


def _stage_delays() -> Dict[str, float]:
    """The ``REPRO_STAGE_DELAY`` fault-injection map (``stage=seconds,…``).

    A test/CI shim, not a feature: the perf-gate CI job sets e.g.
    ``REPRO_STAGE_DELAY=translate=0.05`` to prove that ``repro bench
    diff`` detects and attributes a seeded single-stage slowdown.  The
    sleep happens *inside* the instrumentation context so the delay is
    booked to the named stage, exactly like a real regression.
    Malformed entries are ignored — a typo must not break the pipeline.
    """
    global _STAGE_DELAY_CACHE
    raw = os.environ.get("REPRO_STAGE_DELAY")
    if raw == _STAGE_DELAY_CACHE[0]:
        return _STAGE_DELAY_CACHE[1]
    delays: Dict[str, float] = {}
    for part in (raw or "").split(","):
        stage, _, seconds = part.partition("=")
        try:
            value = float(seconds)
        except ValueError:
            continue
        if stage.strip() and value > 0:
            delays[stage.strip()] = value
    _STAGE_DELAY_CACHE = (raw, delays)
    return delays


def run_stage(ctx: PipelineContext, name: str) -> PipelineContext:
    """Run (or skip, on a gate / cache hit) one named stage."""
    stage = _STAGE_BY_NAME[name]
    delay = _stage_delays().get(stage.name, 0.0)
    if stage.gate is not None and not getattr(ctx, stage.gate):
        ctx.instrumentation.record_skip(stage.name)
        ctx.completed.add(stage.name)
        return ctx
    if _try_cached(ctx, stage):
        _record_artifacts(ctx, stage)
        ctx.completed.add(stage.name)
        return ctx
    if ctx.wrap_errors:
        try:
            with ctx.instrumentation.stage(stage.name):
                if delay:
                    time.sleep(delay)
                stage.run(ctx)
        except wrappable_exceptions() as error:
            raise wrap_exception(stage.name, error) from error
    else:
        with ctx.instrumentation.stage(stage.name):
            if delay:
                time.sleep(delay)
            stage.run(ctx)
    _store_cached(ctx, stage)
    _record_artifacts(ctx, stage)
    ctx.completed.add(stage.name)
    return ctx


def make_context(
    source: str,
    options: Optional[TranslationOptions] = None,
    *,
    instrumentation: Optional[PipelineInstrumentation] = None,
    cache: Optional[ArtifactCache] = None,
    wrap_errors: bool = False,
    analyze: bool = True,
    analysis_strict: bool = False,
) -> PipelineContext:
    """Prepare a fresh context without running anything."""
    return PipelineContext(
        source=source,
        options=options if options is not None else TranslationOptions(),
        instrumentation=instrumentation or PipelineInstrumentation(),
        cache=cache,
        wrap_errors=wrap_errors,
        analyze=analyze,
        analysis_strict=analysis_strict,
    )


def run_pipeline(
    source: str,
    options: Optional[TranslationOptions] = None,
    *,
    upto: str = "check",
    instrumentation: Optional[PipelineInstrumentation] = None,
    cache: Optional[ArtifactCache] = None,
    wrap_errors: bool = False,
    analyze: bool = True,
    analysis_strict: bool = False,
) -> PipelineContext:
    """Run the pipeline from the start through stage ``upto`` (inclusive).

    Returns the populated :class:`PipelineContext`; inspect
    ``ctx.instrumentation`` for per-stage timings, sizes, and counters.
    """
    last = stage_index(upto)
    ctx = make_context(
        source,
        options,
        instrumentation=instrumentation,
        cache=cache,
        wrap_errors=wrap_errors,
        analyze=analyze,
        analysis_strict=analysis_strict,
    )
    for stage in STAGES[: last + 1]:
        run_stage(ctx, stage.name)
    return ctx


def resume_pipeline(ctx: PipelineContext, upto: str = "check") -> PipelineContext:
    """Continue a partially-run context through stage ``upto`` (inclusive)."""
    last = stage_index(upto)
    for stage in STAGES[: last + 1]:
        if stage.name not in ctx.completed:
            run_stage(ctx, stage.name)
    return ctx


# ---------------------------------------------------------------------------
# Convenience entry points (what repro.__init__ and the CLI re-export).
# ---------------------------------------------------------------------------


def translate_source(
    source: str,
    options: Optional[TranslationOptions] = None,
    **kwargs,
) -> TranslationResult:
    """Parse, desugar, type-check, and translate Viper source text."""
    return run_pipeline(source, options, upto="translate", **kwargs).translation


def certify_source(
    source: str,
    options: Optional[TranslationOptions] = None,
    **kwargs,
):
    """Run the full pipeline (through the independent kernel check) and
    return the :class:`~repro.certification.theorem.TheoremReport`."""
    return run_pipeline(source, options, upto="check", **kwargs).report
