"""The evaluation runner: corpus files through the staged pipeline.

Trust: **advisory** — runs the evaluation matrix and records outcomes.

``run_file`` reproduces, for one corpus program, exactly what the paper
measures per Viper file (Tab. 1–6):

* Viper LoC (non-empty lines of the source),
* Boogie LoC (non-empty lines of the pretty-printed translation),
* certificate LoC (lines of the serialised proof — the Isabelle-proof-size
  analog),
* the time to *check* the certificate from its serialised text form,
  independently of the translator (the proof-check-time analog).

The measurements are **derived from pipeline instrumentation records**
(:mod:`repro.pipeline.instrumentation`), not from inline timing: the
harness shares the staged flow (parse → desugar → typecheck → translate →
generate → render → reparse → check) with every other entry point, so
corpus programs get the same loop/old/new/call-argument desugaring as the
CLI and the library API.  ``run_files`` fans out over the corpus through
the parallel executor (:mod:`repro.pipeline.executor`) with deterministic
ordering; ``jobs=None`` keeps the paper-comparable serial default.
"""

from __future__ import annotations

import functools
import statistics
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from ..frontend import TranslationOptions
from ..pipeline import ArtifactCache, parallel_map, PipelineContext, run_pipeline
from .corpus import CorpusFile


@dataclass
class FileMetrics:
    """Measurements for one corpus file (one row of Tables 3–6)."""

    suite: str
    name: str
    methods: int
    viper_loc: int
    boogie_loc: int
    cert_loc: int
    translate_seconds: float
    generate_seconds: float
    check_seconds: float
    certified: bool
    error: str = ""
    #: the advisory static-analysis stage alone (docs/ANALYSIS.md): kept
    #: separate so ``bench --json`` can prove the <5% overhead budget.
    analyze_seconds: float = 0.0
    #: wall-clock across *all* pipeline stages for this file (the overhead
    #: denominator).
    total_seconds: float = 0.0
    #: cache-probe wall-clock, accounted separately from stage work since
    #: the seconds/cache_lookup_seconds split
    #: (:meth:`PipelineInstrumentation.cache_lookup_seconds`), so
    #: ``bench --json`` stage numbers agree with exported traces.
    cache_lookup_seconds: float = 0.0
    #: per-method incremental accounting (reused/rebuilt counts, cache
    #: tiers, and per-method stage timings) from
    #: :meth:`PipelineInstrumentation.unit_cache_summary`.
    unit_cache: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready representation (for ``bench --json``)."""
        return asdict(self)


@dataclass
class SuiteMetrics:
    """Aggregates for one suite (one row of Table 1)."""

    suite: str
    files: int
    methods: int
    mean_viper_loc: float
    mean_boogie_loc: float
    mean_cert_loc: float
    mean_check_seconds: float
    median_check_seconds: float
    all_certified: bool

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def metrics_from_context(corpus_file: CorpusFile, ctx: PipelineContext) -> FileMetrics:
    """Derive one file's metrics from a completed pipeline context.

    Timings and artifact sizes come from the instrumentation records:
    ``translate`` is the translation stage alone, ``generate`` covers
    certificate generation + serialisation, and ``check`` covers the full
    trusted path (re-parse the certificate text + kernel check), matching
    what the paper reports.
    """
    inst = ctx.instrumentation
    sizes = inst.artifact_sizes()
    report = ctx.report
    return FileMetrics(
        suite=corpus_file.suite,
        name=corpus_file.name,
        methods=sizes.get("methods", 0),
        viper_loc=sizes.get("viper_loc", 0),
        boogie_loc=sizes.get("boogie_loc", 0),
        cert_loc=sizes.get("cert_loc", 0),
        translate_seconds=inst.stage_seconds("translate"),
        generate_seconds=inst.stage_seconds("generate", "render"),
        check_seconds=inst.stage_seconds("reparse", "check"),
        certified=bool(report.ok) if report is not None else False,
        error=report.error if report is not None else "pipeline incomplete",
        analyze_seconds=inst.stage_seconds("analyze"),
        total_seconds=inst.total_seconds(),
        cache_lookup_seconds=inst.cache_lookup_seconds(),
        unit_cache=inst.unit_cache_summary(),
    )


def run_file(
    corpus_file: CorpusFile,
    options: Optional[TranslationOptions] = None,
    cache: Optional[ArtifactCache] = None,
) -> FileMetrics:
    """Run the staged pipeline on one file and collect its metrics.

    Module-level and picklable, so it doubles as the process-pool worker
    for :func:`run_files`.
    """
    ctx = run_pipeline(corpus_file.source, options, cache=cache)
    return metrics_from_context(corpus_file, ctx)


def run_files(
    files: Sequence[CorpusFile],
    options: Optional[TranslationOptions] = None,
    jobs: Optional[int] = None,
) -> List[FileMetrics]:
    """Run the pipeline on a list of corpus files.

    ``jobs=None``/``1`` runs serially (the default); ``jobs=0`` uses one
    worker per CPU; ``jobs=N`` uses N processes.  Output order always
    matches the input order, so parallel runs aggregate and render
    identically to serial runs (timings aside).
    """
    # Load the analyzer, which the pipeline imports lazily, before fanning
    # out: forked workers inherit it, so its import is start-up cost rather
    # than the first file's analyze time.
    from .. import analysis  # noqa: F401

    worker = functools.partial(run_file, options=options)
    return parallel_map(worker, files, jobs=jobs)


def aggregate(suite: str, metrics: Sequence[FileMetrics]) -> SuiteMetrics:
    """Aggregate per-file metrics into a Table-1 row."""
    return SuiteMetrics(
        suite=suite,
        files=len(metrics),
        methods=sum(m.methods for m in metrics),
        mean_viper_loc=statistics.mean(m.viper_loc for m in metrics),
        mean_boogie_loc=statistics.mean(m.boogie_loc for m in metrics),
        mean_cert_loc=statistics.mean(m.cert_loc for m in metrics),
        mean_check_seconds=statistics.mean(m.check_seconds for m in metrics),
        median_check_seconds=statistics.median(m.check_seconds for m in metrics),
        all_certified=all(m.certified for m in metrics),
    )


def aggregate_overall(per_suite: Dict[str, List[FileMetrics]]) -> SuiteMetrics:
    """The Overall row of Table 1 (all suites pooled)."""
    all_metrics = [m for metrics in per_suite.values() for m in metrics]
    return aggregate("Overall", all_metrics)
