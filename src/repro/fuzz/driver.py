"""The adversarial fuzzing driver: generate → pipeline → oracle → mutate.

Trust: **advisory** — fuzz campaign orchestration.

Each iteration of :func:`run_fuzz` exercises the full trust story once:

1. **Clean run** — a seeded well-typed Viper program (from
   :mod:`repro.fuzz.generate` or the handcrafted seed corpus) goes through
   :func:`repro.pipeline.run_pipeline` end to end.  The expected outcome
   is ``accept``; a kernel rejection of a pristine translation
   (``reject``), any exception (``crash``), or a differential-oracle
   disagreement (``oracle-disagreement``) is a failure of the system under
   test.
2. **Incremental-consistency run** — one semantically inert
   single-method source edit (:func:`repro.fuzz.mutators.mutate_single_method`)
   re-runs the pipeline against the warm unit cache of the clean run.
   The rebuilt set must equal what the dependency map
   (:mod:`repro.pipeline.units`) predicts: the mutated unit alone for a
   body edit, the unit plus its transitive callers for a spec edit.  A
   disagreement is ``unit-mismatch`` — a bug in the incrementality
   layer's cache routing (never a soundness bug, but a broken rebuild
   contract).
3. **Mutant run** — one adversarial mutator from
   :mod:`repro.fuzz.mutators` corrupts an untrusted artifact of the same
   translation, and the trusted reparse+check path judges the corrupted
   pair.  The expected outcome is ``mutant-reject``; a kernel exception is
   ``mutant-crash`` and a kernel acceptance is escalated by the oracle:
   semantic disagreement means ``oracle-disagreement`` (a soundness bug —
   the kernel certified a lie), while semantic agreement is recorded as
   ``mutant-accept-benign`` (the corruption was provably inert; the kernel
   was *right* to accept).  When the mutant's axioms differ from the
   pristine ones, the oracle first evaluates every axiom again, with no
   schema recognised, so an axiom false on the sampled carriers that the
   kernel let through is an ``oracle-disagreement`` too.

Failures are deduplicated by bucket signature, persisted to a replayable
corpus (:mod:`repro.fuzz.corpus`), and delta-debugged to minimal
reproducers (:mod:`repro.fuzz.minimize`).  Iterations are deterministic
functions of ``(seed, index)`` — :func:`derive_seed` — so a run can be
bisected, parallelised over :func:`repro.pipeline.executor.parallel_map`
workers, or replayed case by case without changing any verdict.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..certification.oracle import validate_program_semantically
from ..certification.prooftree import (
    CertificateParseError,
    parse_program_certificate,
)
from ..boogie.interp import check_axioms_bounded
from ..certification.theorem import check_program_certificate
from ..frontend.background import constant_valuation, standard_interpretation
from ..frontend.translator import TranslationOptions, TranslationResult
from ..pipeline import ArtifactCache, PipelineError, run_pipeline
from ..pipeline.executor import parallel_map_batches, resolve_jobs
from ..pipeline.units import callers_of
from ..viper.pretty import pretty_program
from .corpus import bucket_for, FailureRecord, FuzzCorpus
from .generate import derive_seed, generate_program, SEED_CORPUS
from .minimize import minimize_cert_text, minimize_source
from .mutators import (
    make_subject,
    Mutation,
    mutate_single_method,
    MUTATORS,
    MUTATORS_BY_NAME,
    normalize_certificate,
)

__all__ = [
    "CaseResult",
    "FAILURE_OUTCOMES",
    "FuzzCase",
    "FuzzConfig",
    "FuzzReport",
    "OPTION_VARIANTS",
    "build_case",
    "replay_record",
    "run_case",
    "run_fuzz",
]


# ---------------------------------------------------------------------------
# Configuration and the deterministic case schedule
# ---------------------------------------------------------------------------

#: Translation variants rotated through by the schedule.  Fuzzing only the
#: default variant would leave whole kernel branches (wd-checks at calls,
#: temp-based permissions, unconditional exhale havocs) untested.
OPTION_VARIANTS: Dict[str, TranslationOptions] = {
    "default": TranslationOptions(),
    "wd-at-calls": TranslationOptions(wd_checks_at_calls=True),
    "no-fastpath": TranslationOptions(literal_perm_fastpath=False),
    "always-havoc": TranslationOptions(always_emit_exhale_havoc=True),
}

_OPTION_NAMES = tuple(OPTION_VARIANTS)

#: Mutators that only apply under a specific translation variant or seed
#: program get that combination forced whenever they are scheduled, so a
#: bounded run still covers every mutator class.
_PREFERRED_SUBJECT: Dict[str, Tuple[Optional[int], str]] = {
    "hints-claim-wd-omitted": (0, "wd-at-calls"),
    "hints-claim-wd-present": (0, "default"),
    "hints-lie-fastpath": (0, "no-fastpath"),
}

FAILURE_OUTCOMES = frozenset(
    {"reject", "crash", "oracle-disagreement", "mutant-crash",
     "unit-mismatch"}
)


@dataclass(frozen=True)
class FuzzConfig:
    """Everything a fuzzing run depends on (picklable, all primitives)."""

    seed: int = 0
    iterations: int = 100
    time_budget: Optional[float] = None  # seconds, checked between batches
    jobs: Optional[int] = None
    oracle_states: int = 4
    #: Per-state path budgets for the differential oracle.  The oracle's
    #: defaults (4 000 / 60 000) are tuned for one-shot validation of a
    #: single file; a fuzzing run executes the oracle on *every* iteration
    #: and methods with calls make Boogie path enumeration explode, so the
    #: driver trades completeness for throughput.  Budget exhaustion is
    #: *inconclusive* (ok), never a spurious disagreement.
    oracle_viper_paths: int = 400
    oracle_boogie_paths: int = 2_000
    corpus_dir: str = "fuzz-corpus"
    minimize: bool = True


@dataclass(frozen=True)
class FuzzCase:
    """One deterministic iteration: ``(seed, index) → case``."""

    index: int
    case_seed: int
    source_kind: str  # "seed-corpus" | "generated"
    source: str
    options_name: str
    mutator_start: int
    features: Tuple[str, ...] = ()


@dataclass
class CaseResult:
    """The judged outcomes of one case (clean run + mutant run)."""

    index: int
    case_seed: int
    source_kind: str
    options_name: str
    source: str
    clean_outcome: str = "accept"
    clean_detail: str = ""
    mutator: Optional[str] = None
    mutant_outcome: Optional[str] = None
    mutant_detail: str = ""
    mutant_certificate: Optional[str] = None
    #: Incremental-consistency verdict: ``unit-consistent``,
    #: ``unit-mismatch``, or ``None`` when no source mutation applied.
    unit_outcome: Optional[str] = None
    unit_detail: str = ""
    duration: float = 0.0
    features: Tuple[str, ...] = ()

    def failures(self) -> List[Tuple[str, str, Optional[str], Optional[str]]]:
        """``(outcome, detail, mutator, certificate_text)`` per failure."""
        found = []
        if self.clean_outcome in FAILURE_OUTCOMES:
            found.append((self.clean_outcome, self.clean_detail, None, None))
        if self.unit_outcome in FAILURE_OUTCOMES:
            found.append((self.unit_outcome, self.unit_detail, None, None))
        if self.mutant_outcome in FAILURE_OUTCOMES:
            found.append(
                (
                    self.mutant_outcome,
                    self.mutant_detail,
                    self.mutator,
                    self.mutant_certificate,
                )
            )
        return found


def build_case(config: FuzzConfig, index: int) -> FuzzCase:
    """The deterministic schedule: what does iteration ``index`` run?"""
    case_seed = derive_seed(config.seed, index)
    scheduled = MUTATORS[index % len(MUTATORS)]
    preferred = _PREFERRED_SUBJECT.get(scheduled.name)
    if preferred is not None:
        seed_index, options_name = preferred
    else:
        seed_index = (index // 3) % len(SEED_CORPUS) if index % 3 == 0 else None
        options_name = _OPTION_NAMES[index % len(_OPTION_NAMES)]
    if seed_index is not None:
        return FuzzCase(
            index=index,
            case_seed=case_seed,
            source_kind="seed-corpus",
            source=SEED_CORPUS[seed_index],
            options_name=options_name,
            mutator_start=index % len(MUTATORS),
        )
    generated = generate_program(case_seed)
    return FuzzCase(
        index=index,
        case_seed=case_seed,
        source_kind="generated",
        source=generated.source,
        options_name=options_name,
        mutator_start=index % len(MUTATORS),
        features=generated.features,
    )


# ---------------------------------------------------------------------------
# Judging one case (module-level: picklable for the parallel executor)
# ---------------------------------------------------------------------------


def _judge_mutation(
    mutation: Mutation, pristine, config: FuzzConfig
) -> Tuple[str, str]:
    """Classify one mutation through the trusted reparse+check path."""
    try:
        certificate = parse_program_certificate(mutation.certificate_text)
    except CertificateParseError as error:
        return "mutant-reject", f"reparse: {error}"
    except Exception as error:  # noqa: BLE001 - parser crash is a finding
        return "mutant-crash", f"reparse crash: {type(error).__name__}: {error}"
    try:
        report = check_program_certificate(mutation.result, certificate)
    except Exception as error:  # noqa: BLE001 - kernel crash is a finding
        return "mutant-crash", f"kernel crash: {type(error).__name__}: {error}"
    if not report.ok:
        return "mutant-reject", report.error or "kernel rejected"
    # The kernel accepted a corrupted artifact: escalate to the oracle.
    if normalize_certificate(certificate) == normalize_certificate(
        pristine.certificate
    ) and mutation.result is pristine.result:
        return "mutant-noop", "mutation denoted the identical certificate"
    result = mutation.result
    if result.boogie_program.axioms != pristine.result.boogie_program.axioms:
        axioms = check_axioms_bounded(
            result.boogie_program,
            standard_interpretation(result.type_info.field_types),
            constant_valuation(result.background),
        )
        if not axioms.ok:
            return (
                "oracle-disagreement",
                f"kernel accepted mutant but an axiom is false: {axioms.detail}",
            )
    verdicts = validate_program_semantically(
        result,
        max_states_per_method=config.oracle_states,
        max_viper_paths=config.oracle_viper_paths,
        max_boogie_paths=config.oracle_boogie_paths,
    )
    disagreements = [v for v in verdicts if not v.ok]
    if disagreements:
        worst = disagreements[0]
        return (
            "oracle-disagreement",
            f"kernel accepted mutant but oracle disagrees on "
            f"{worst.method}: {worst.detail}",
        )
    return (
        "mutant-accept-benign",
        "kernel accepted a corrupted artifact; oracle confirms the "
        "corruption is semantically inert",
    )


def _check_unit_accounting(
    ctx, case: FuzzCase, options: TranslationOptions, cache: ArtifactCache
) -> Tuple[Optional[str], str]:
    """Judge the incrementality layer against its own dependency map.

    One inert single-method source edit
    (:func:`repro.fuzz.mutators.mutate_single_method`) re-runs the
    pipeline against the warm unit cache of the clean run.  Three sets
    must coincide: the units the dependency map predicts invalid (the
    mutated unit, plus its transitive callers iff the edit touched the
    spec), the units whose cache key actually changed, and the units the
    pipeline actually rebuilt.  Any disagreement is a ``unit-mismatch``
    finding — stale-cache routing in the incremental layer (it cannot be
    a soundness bug, docs/TRUSTED_BASE.md, but it breaks the
    incremental-rebuild contract).
    """
    rng = random.Random(case.case_seed ^ 0x1C4E11A7)
    # Round-trip to a canonical baseline first: the mutated source is a
    # pretty-print, so its *unmutated* methods must reparse to ASTs that
    # are digest-identical to the baseline's.  The original source is not
    # that baseline — desugaring (old-expressions, loops) can produce
    # tree shapes the pretty-printer renders the same but the parser
    # re-nests differently.
    canonical = pretty_program(ctx.program)
    try:
        base = run_pipeline(canonical, options=options, cache=cache)
    except Exception as error:  # noqa: BLE001
        return (
            "unit-mismatch",
            f"canonical round-trip crashed the pipeline: "
            f"{type(error).__name__}: {error}",
        )
    if not base.report.ok:
        return (
            "unit-mismatch",
            f"canonical round-trip was rejected: {base.report.error}",
        )
    mutation = mutate_single_method(rng, base.program)
    if mutation is None:
        return None, ""
    expected = {mutation.method}
    if mutation.kind == "spec":
        expected |= set(callers_of(base.units, mutation.method))
    try:
        warm = run_pipeline(mutation.source, options=options, cache=cache)
    except Exception as error:  # noqa: BLE001 - inert edits must not crash
        return (
            "unit-mismatch",
            f"inert {mutation.kind} edit of {mutation.method!r} crashed "
            f"the pipeline: {type(error).__name__}: {error}",
        )
    if not warm.report.ok:
        return (
            "unit-mismatch",
            f"inert {mutation.kind} edit of {mutation.method!r} was "
            f"rejected: {warm.report.error}",
        )
    key_diff = {
        name
        for name, key in warm.unit_keys.items()
        if base.unit_keys.get(name) != key
    }
    rebuilt = set(
        warm.instrumentation.unit_cache_summary()["rebuilt_methods"]
    )
    if rebuilt != expected or key_diff != expected:
        return (
            "unit-mismatch",
            f"{mutation.kind} edit of {mutation.method!r}: dependency map "
            f"predicts {sorted(expected)}, key diff {sorted(key_diff)}, "
            f"pipeline rebuilt {sorted(rebuilt)}",
        )
    return "unit-consistent", ""


def run_case(args: Tuple[FuzzConfig, FuzzCase]) -> CaseResult:
    """Run one fuzz case: clean pipeline + oracle + incremental
    consistency + one artifact mutation."""
    config, case = args
    started = time.perf_counter()
    result = CaseResult(
        index=case.index,
        case_seed=case.case_seed,
        source_kind=case.source_kind,
        options_name=case.options_name,
        source=case.source,
        features=case.features,
    )
    options = OPTION_VARIANTS[case.options_name]
    # 1. Clean run through the staged pipeline.  The local cache warms
    #    the per-unit tier for the incremental-consistency check below.
    unit_cache = ArtifactCache()
    try:
        ctx = run_pipeline(case.source, options=options, cache=unit_cache)
    except PipelineError as error:
        result.clean_outcome = "crash"
        result.clean_detail = f"pipeline diagnostic: {error}"
        result.duration = time.perf_counter() - started
        return result
    except Exception as error:  # noqa: BLE001 - any crash is a finding
        result.clean_outcome = "crash"
        result.clean_detail = f"{type(error).__name__}: {error}"
        result.duration = time.perf_counter() - started
        return result
    if not ctx.report.ok:
        result.clean_outcome = "reject"
        result.clean_detail = ctx.report.error or "kernel rejected pristine run"
        result.duration = time.perf_counter() - started
        return result
    # 2. Differential oracle co-execution on the pristine translation.
    try:
        verdicts = validate_program_semantically(
            ctx.translation,
            max_states_per_method=config.oracle_states,
            max_viper_paths=config.oracle_viper_paths,
            max_boogie_paths=config.oracle_boogie_paths,
        )
    except Exception as error:  # noqa: BLE001
        result.clean_outcome = "crash"
        result.clean_detail = f"oracle crash: {type(error).__name__}: {error}"
        result.duration = time.perf_counter() - started
        return result
    bad = [v for v in verdicts if not v.ok]
    if bad:
        result.clean_outcome = "oracle-disagreement"
        result.clean_detail = f"{bad[0].method}: {bad[0].detail}"
        result.duration = time.perf_counter() - started
        return result
    # 3. Incremental consistency: unit-reuse accounting must match the
    #    dependency map for one inert single-method edit.
    result.unit_outcome, result.unit_detail = _check_unit_accounting(
        ctx, case, options, unit_cache
    )
    # 4. One adversarial mutation (rotating start for class coverage).
    try:
        subject = make_subject(ctx.translation)
    except Exception as error:  # noqa: BLE001
        result.clean_outcome = "crash"
        result.clean_detail = f"tactic crash: {type(error).__name__}: {error}"
        result.duration = time.perf_counter() - started
        return result
    rng = random.Random(case.case_seed ^ 0x5BF03635)
    for offset in range(len(MUTATORS)):
        mutator = MUTATORS[(case.mutator_start + offset) % len(MUTATORS)]
        try:
            mutation = mutator.apply(rng, subject)
        except Exception as error:  # noqa: BLE001 - mutator bug, not kernel
            result.mutator = mutator.name
            result.mutant_outcome = "mutant-crash"
            result.mutant_detail = (
                f"mutator crash: {type(error).__name__}: {error}"
            )
            result.duration = time.perf_counter() - started
            return result
        if mutation is None:
            continue
        result.mutator = mutator.name
        outcome, detail = _judge_mutation(mutation, subject, config)
        result.mutant_outcome = outcome
        result.mutant_detail = detail
        if outcome in FAILURE_OUTCOMES or outcome == "mutant-accept-benign":
            result.mutant_certificate = mutation.certificate_text
        break
    result.duration = time.perf_counter() - started
    return result


# ---------------------------------------------------------------------------
# Minimization of failures (runs in the parent process)
# ---------------------------------------------------------------------------


def _clean_outcome_of(source: str, config: FuzzConfig, options_name: str) -> str:
    """Re-classify a candidate source the way the driver would."""
    options = OPTION_VARIANTS[options_name]
    try:
        ctx = run_pipeline(source, options=options)
    except Exception:  # noqa: BLE001 - classification, not judgement
        return "crash"
    if not ctx.report.ok:
        return "reject"
    try:
        verdicts = validate_program_semantically(
            ctx.translation,
            max_states_per_method=config.oracle_states,
            max_viper_paths=config.oracle_viper_paths,
            max_boogie_paths=config.oracle_boogie_paths,
        )
    except Exception:  # noqa: BLE001
        return "crash"
    if any(not v.ok for v in verdicts):
        return "oracle-disagreement"
    return "accept"


def _mutant_cert_predicate(
    result: TranslationResult, outcome: str
) -> Callable[[str], bool]:
    """Does a candidate certificate text still show the mutant failure?"""

    def predicate(text: str) -> bool:
        try:
            certificate = parse_program_certificate(text)
        except CertificateParseError:
            return False  # clean rejection by the reparse path
        except Exception:  # noqa: BLE001
            return outcome == "mutant-crash"
        try:
            report = check_program_certificate(result, certificate)
        except Exception:  # noqa: BLE001
            return outcome == "mutant-crash"
        if outcome == "mutant-crash":
            return False
        return report.ok  # mutant-accept*: still accepted

    return predicate


def minimize_failure(
    record: FailureRecord, config: FuzzConfig, options_name: str = "default"
) -> FailureRecord:
    """Attach minimized reproducers to a failure record (deterministic)."""
    if record.outcome == "unit-mismatch":
        # The reproducer is the (source, case_seed) pair itself — the
        # inert edit is derived from it deterministically; source-level
        # delta debugging would chase a clean-run outcome instead.
        return record
    if record.mutator is None:
        target = record.outcome

        def predicate(text: str) -> bool:
            return _clean_outcome_of(text, config, options_name) == target

        record.minimized_source = minimize_source(record.source, predicate)
    elif record.certificate_text is not None:
        try:
            ctx = run_pipeline(
                record.source, options=OPTION_VARIANTS[options_name], upto="check"
            )
            result = ctx.translation
        except Exception:  # noqa: BLE001 - keep the raw reproducer
            return record
        record.minimized_certificate = minimize_cert_text(
            record.certificate_text,
            _mutant_cert_predicate(result, record.outcome),
        )
    return record


# ---------------------------------------------------------------------------
# The run loop and report
# ---------------------------------------------------------------------------


@dataclass
class FuzzReport:
    """Aggregated result of a fuzzing run (JSON-serialisable)."""

    seed: int
    iterations_requested: int
    iterations_run: int = 0
    duration: float = 0.0
    outcome_counts: Dict[str, int] = field(default_factory=dict)
    mutator_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    feature_counts: Dict[str, int] = field(default_factory=dict)
    failures: List[Dict[str, object]] = field(default_factory=list)
    new_buckets: int = 0
    corpus_dir: str = "fuzz-corpus"

    @property
    def ok(self) -> bool:
        """True iff no iteration produced a failure outcome."""
        return not self.failures

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(asdict(self), indent=indent, sort_keys=True)

    def summary(self) -> str:
        lines = [
            f"fuzz: seed={self.seed} iterations={self.iterations_run}"
            f"/{self.iterations_requested} duration={self.duration:.2f}s",
            "outcomes: "
            + (
                ", ".join(
                    f"{name}={count}"
                    for name, count in sorted(self.outcome_counts.items())
                )
                or "none"
            ),
        ]
        covered = sum(
            1 for stats in self.mutator_stats.values() if stats.get("mutant-reject")
        )
        lines.append(
            f"mutator classes with >=1 kernel rejection: {covered}/{len(MUTATORS)}"
        )
        if self.failures:
            lines.append(f"FAILURES ({len(self.failures)} bucketed):")
            for failure in self.failures:
                lines.append(
                    f"  [{failure['outcome']}] {failure['bucket']}: "
                    f"{failure['detail']}"
                )
        else:
            lines.append("no failures: kernel rejected every adversarial artifact")
        return "\n".join(lines)


def _record_result(
    report: FuzzReport,
    result: CaseResult,
    corpus: Optional[FuzzCorpus],
    config: FuzzConfig,
) -> None:
    report.iterations_run += 1
    report.outcome_counts[result.clean_outcome] = (
        report.outcome_counts.get(result.clean_outcome, 0) + 1
    )
    if result.unit_outcome is not None:
        report.outcome_counts[result.unit_outcome] = (
            report.outcome_counts.get(result.unit_outcome, 0) + 1
        )
    if result.mutant_outcome is not None:
        report.outcome_counts[result.mutant_outcome] = (
            report.outcome_counts.get(result.mutant_outcome, 0) + 1
        )
    if result.mutator is not None and result.mutant_outcome is not None:
        stats = report.mutator_stats.setdefault(result.mutator, {})
        stats[result.mutant_outcome] = stats.get(result.mutant_outcome, 0) + 1
    for feature in result.features:
        report.feature_counts[feature] = report.feature_counts.get(feature, 0) + 1
    for outcome, detail, mutator, certificate in result.failures():
        record = FailureRecord(
            outcome=outcome,
            detail=detail,
            source=result.source,
            mutator=mutator,
            certificate_text=certificate,
            case={
                "seed": config.seed,
                "index": result.index,
                "case_seed": result.case_seed,
                "source_kind": result.source_kind,
                "options_name": result.options_name,
            },
        )
        entry: Dict[str, object] = {
            "outcome": outcome,
            "bucket": record.bucket,
            "detail": detail,
            "index": result.index,
            "mutator": mutator,
        }
        if corpus is not None:
            known = record.bucket in set(corpus.buckets())
            if not known:
                if config.minimize:
                    record = minimize_failure(record, config, result.options_name)
                _, created = corpus.persist(record)
                report.new_buckets += int(created)
                entry["path"] = str(corpus.root / record.bucket)
        report.failures.append(entry)


def run_fuzz(
    config: FuzzConfig,
    *,
    corpus: Optional[FuzzCorpus] = None,
    progress: Optional[Callable[[CaseResult], None]] = None,
) -> FuzzReport:
    """Run a fuzzing session according to ``config``.

    Cases are scheduled deterministically from ``(seed, index)``, fanned
    out over :func:`repro.pipeline.executor.parallel_map_batches` (which
    degrades to serial in-process execution for ``jobs in (None, 1)``),
    and judged as described in the module docstring.  Failures are
    deduplicated, minimized (in the parent process) and persisted to the
    corpus when one is supplied.
    """
    started = time.perf_counter()
    if corpus is None and config.corpus_dir:
        corpus = FuzzCorpus(config.corpus_dir)
    report = FuzzReport(
        seed=config.seed,
        iterations_requested=config.iterations,
        corpus_dir=str(corpus.root) if corpus is not None else "",
    )
    deadline = (
        started + config.time_budget if config.time_budget is not None else None
    )
    cases = [
        (config, build_case(config, index)) for index in range(config.iterations)
    ]
    workers = resolve_jobs(config.jobs)
    results = parallel_map_batches(
        run_case,
        cases,
        jobs=config.jobs,
        batch_size=max(8, 4 * workers),
        should_stop=(
            (lambda: time.perf_counter() >= deadline) if deadline else None
        ),
    )
    for result in results:
        _record_result(report, result, corpus, config)
        if progress is not None:
            progress(result)
    report.duration = time.perf_counter() - started
    return report


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def replay_record(
    record: FailureRecord, *, minimize: bool = True
) -> FuzzReport:
    """Re-judge one persisted failure (for ``repro fuzz --replay``).

    Three replay modes, chosen from what the record contains:

    * a stored **certificate** (``hints``/``cert`` mutants, or a
      hand-forced failure) is re-judged directly through the trusted
      reparse+check path against a fresh translation of the stored source;
    * a **boogie-artifact** mutant is replayed by re-running the full
      deterministic schedule (``run_case``) — the mutated program is a
      function of ``(case_seed, mutator_start)``, not of any persisted
      binary artifact;
    * a **clean failure** re-runs pipeline + oracle on the stored source.

    A fresh minimization pass runs so the reproducer in the report is
    always the minimal one, independent of what was persisted.
    """
    config = FuzzConfig(minimize=minimize, corpus_dir="")
    options_name = str(record.case.get("options_name", "default"))
    if options_name not in OPTION_VARIANTS:
        options_name = "default"
    report = FuzzReport(seed=int(record.case.get("seed", 0)), iterations_requested=1)
    index = int(record.case.get("index", 0))
    mutator = MUTATORS_BY_NAME.get(record.mutator or "")
    if record.outcome == "unit-mismatch":
        # The inert source edit is a deterministic function of
        # (case_seed, source): re-running the full case re-derives it.
        case = FuzzCase(
            index=index,
            case_seed=int(record.case.get("case_seed", derive_seed(0, index))),
            source_kind=str(record.case.get("source_kind", "replay")),
            source=record.source,
            options_name=options_name,
            mutator_start=index % len(MUTATORS),
        )
        result = run_case((config, case))
    elif record.mutator is None or record.certificate_text is None:
        result = CaseResult(
            index=index,
            case_seed=int(record.case.get("case_seed", 0)),
            source_kind=str(record.case.get("source_kind", "replay")),
            options_name=options_name,
            source=record.source,
        )
        result.clean_outcome = _clean_outcome_of(record.source, config, options_name)
        result.clean_detail = f"replayed {record.outcome} case"
    elif mutator is not None and mutator.artifact == "boogie":
        case = FuzzCase(
            index=index,
            case_seed=int(record.case.get("case_seed", derive_seed(0, index))),
            source_kind=str(record.case.get("source_kind", "replay")),
            source=record.source,
            options_name=options_name,
            mutator_start=index % len(MUTATORS),
        )
        result = run_case((config, case))
    else:
        result = CaseResult(
            index=index,
            case_seed=int(record.case.get("case_seed", 0)),
            source_kind=str(record.case.get("source_kind", "replay")),
            options_name=options_name,
            source=record.source,
            mutator=record.mutator,
        )
        try:
            ctx = run_pipeline(record.source, options=OPTION_VARIANTS[options_name])
            subject = make_subject(ctx.translation)
            mutation = Mutation(
                mutator=record.mutator,
                artifact=mutator.artifact if mutator else "cert",
                result=subject.result,
                certificate_text=record.certificate_text,
                detail=record.detail,
            )
            outcome, detail = _judge_mutation(mutation, subject, config)
        except Exception as error:  # noqa: BLE001
            outcome, detail = "crash", f"{type(error).__name__}: {error}"
        result.mutant_outcome = outcome
        result.mutant_detail = detail
        result.mutant_certificate = record.certificate_text
    _record_result(report, result, None, config)
    if report.failures and minimize:
        minimized = minimize_failure(
            FailureRecord(
                outcome=report.failures[0]["outcome"],  # type: ignore[arg-type]
                detail=str(report.failures[0]["detail"]),
                source=record.source,
                mutator=record.mutator,
                certificate_text=record.certificate_text,
            ),
            config,
            options_name,
        )
        report.failures[0]["minimized_source"] = minimized.minimized_source
        report.failures[0]["minimized_certificate"] = minimized.minimized_certificate
    return report
