"""Command-line interface for the validated translation pipeline.

Trust: **untrusted-but-checked** — orchestration and presentation; verdicts
it prints come from the kernel.

Subcommands::

    python -m repro.cli translate FILE.vpr [-o OUT.bpl] [options]
    python -m repro.cli certify   FILE.vpr [-o OUT.cert] [--oracle] [--timings]
    python -m repro.cli lint      FILE.vpr [--json] [--select IDS] [--ignore IDS]
    python -m repro.cli check     FILE.vpr OUT.bpl OUT.cert
    python -m repro.cli verify    FILE.vpr
    python -m repro.cli bench     [SUITE] [--jobs N] [--json PATH]
    python -m repro.cli fuzz      [--seed N] [--iterations N] [--replay PATH]
    python -m repro.cli serve     [--port N] [--jobs N] [--cache-dir DIR]
                                  [--trace-dir DIR]
    python -m repro.cli loadgen   [--requests N] [--concurrency N] [--json]
    python -m repro.cli trace     summarize FILE...
    python -m repro.cli tcb       check [--json] [--root DIR] [--doc PATH]

``certify`` runs the instrumented translation and writes the certificate;
``check`` re-checks a certificate *independently*: it parses the Viper
source, parses the Boogie file with the Boogie parser, parses the
certificate, and runs only the trusted kernel — the translator is not
involved.  ``verify`` runs the bounded back-end on each procedure.
``lint`` runs the advisory static analyzer (:mod:`repro.analysis`) and
exits 0 when clean, 1 when findings remain, and 2 when the program could
not even be parsed.  ``fuzz`` adversarially stress-tests the kernel
(:mod:`repro.fuzz`): it exits 0 iff no iteration crashed or produced an
oracle disagreement.
``serve`` runs the long-lived certification server
(:mod:`repro.service`); ``loadgen`` replays the harness corpus against
one and reports latency percentiles, throughput, and the cache split.
``trace summarize`` renders exported trace files (``certify --trace``,
``serve --trace-dir``) as an aggregate table plus a flame tree of the
slowest trace (:mod:`repro.trace`).
``tcb check`` turns the trust boundary inward: it statically analyzes
*this package's own source* against the machine-readable trust policy
(:mod:`repro.tcb`, docs/TCB_CHECK.md) and exits with the ``lint``
convention — 0 when the boundary holds, 1 on findings, 2 when the tree
could not be analyzed.

Every command drives :mod:`repro.pipeline` — the single place the stage
sequence (parse → desugar → typecheck → units → analyze → translate →
generate → render → reparse → check) is spelled out.  Pipeline failures
surface as structured
diagnostics (stage, source location, recovery hint) with exit code 2;
``SIGINT`` exits with the conventional 130 and ``SIGTERM`` drains
cleanly and exits 143 (both tested via subprocess).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from dataclasses import replace
from typing import Optional

from .boogie.parser import parse_boogie_program
from .boogie.prover import Verdict, verify_procedure_bounded
from .certification import check_program_certificate, parse_program_certificate
from .certification.oracle import validate_program_semantically
from .frontend import procedure_name, TranslationOptions
from .frontend.background import build_background, constant_valuation, standard_interpretation
from .frontend.translator import TranslationResult
from .pipeline import (
    ParseError,
    PipelineContext,
    PipelineError,
    PipelineInstrumentation,
    run_pipeline,
    wrap_exception,
)
from .pipeline.diagnostics import wrappable_exceptions


def _read_source(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _run_file_pipeline(path: str, upto: str, options=None, **kwargs) -> PipelineContext:
    """Run the staged pipeline on a Viper file, with CLI diagnostics."""
    return run_pipeline(_read_source(path), options, upto=upto, wrap_errors=True, **kwargs)


def _load_viper(path: str):
    """Parse, desugar, and type-check a Viper file (pipeline delegation).

    Retained for backwards compatibility; new code should call
    :func:`repro.pipeline.run_pipeline` directly.
    """
    ctx = _run_file_pipeline(path, upto="typecheck")
    return ctx.program, ctx.type_info


def _options_from(args: argparse.Namespace) -> TranslationOptions:
    return TranslationOptions(
        wd_checks_at_calls=getattr(args, "wd_at_calls", False),
        literal_perm_fastpath=not getattr(args, "no_fastpath", False),
        always_emit_exhale_havoc=getattr(args, "always_havoc", False),
    )


def _print_timings(ctx: PipelineContext) -> None:
    print("\nper-stage instrumentation:")
    for record in ctx.instrumentation.records:
        status = "cached" if record.cached else ("skipped" if record.skipped else f"{record.seconds:.4f}s")
        sizes = "".join(f"  {k}={v}" for k, v in record.artifacts.items())
        print(f"  {record.stage:<10} {status:>8}{sizes}")


def cmd_translate(args: argparse.Namespace) -> int:
    """`translate`: emit the Boogie program for a Viper file."""
    ctx = _run_file_pipeline(args.file, "translate", _options_from(args),
                             analyze=not args.no_analyze)
    text = ctx.boogie_text
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output} ({len(text.splitlines())} lines)")
    else:
        print(text)
    if args.timings:
        _print_timings(ctx)
    return 0


def _write_trace_file(path: str, root, inst: PipelineInstrumentation) -> None:
    """Export one CLI run's trace: the root span plus derived stage spans."""
    from .trace import spans_from_instrumentation, write_chrome_trace

    spans = [root] + spans_from_instrumentation(inst, parent=root.context())
    write_chrome_trace(path, spans)
    print(f"wrote {path} ({len(spans)} spans, trace {root.trace_id})")


def cmd_certify(args: argparse.Namespace) -> int:
    """`certify`: translate, generate, serialise, and independently check."""
    root = None
    if args.trace:
        from .trace import Span, use_context

        # The whole run shares one trace.  The trace is written even when
        # a stage raises — an errored run is exactly the one worth
        # inspecting — with the stages completed so far.
        inst = PipelineInstrumentation()
        root = Span.start("certify", attributes={"file": args.file})
        try:
            with use_context(root.context()):
                ctx = _run_file_pipeline(args.file, "check", _options_from(args),
                                         analyze=not args.no_analyze,
                                         instrumentation=inst)
        except Exception as error:
            root.end()
            root.set_error(str(error))
            _write_trace_file(args.trace, root, inst)
            raise
    else:
        ctx = _run_file_pipeline(args.file, "check", _options_from(args),
                                 analyze=not args.no_analyze)
    report = ctx.report
    if root is not None:
        root.end()
        if not report.ok:
            root.set_error(report.error)
        _write_trace_file(args.trace, root, ctx.instrumentation)
    if not report.ok:
        print(f"certification FAILED: {report.error}", file=sys.stderr)
        return 1
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(ctx.certificate_text)
        print(f"wrote {args.output} ({len(ctx.certificate_text.splitlines())} lines)")
    if args.boogie_output:
        with open(args.boogie_output, "w", encoding="utf-8") as handle:
            handle.write(ctx.boogie_text)
        print(f"wrote {args.boogie_output}")
    print(report.statement())
    summary = ctx.instrumentation.unit_cache_summary()
    if summary["reused"] or summary["rebuilt"]:
        print(f"units: {summary['reused']} reused, "
              f"{summary['rebuilt']} rebuilt")
    if args.timings:
        _print_timings(ctx)
        for record in ctx.instrumentation.unit_records:
            status = "reused" if record.reused else f"{record.seconds:.4f}s"
            print(f"  {record.stage:<10} {status:>8}  "
                  f"unit={record.method} tier={record.tier}")
    if args.oracle:
        print("\nsemantic oracle (failure-direction co-execution):")
        for verdict in validate_program_semantically(ctx.translation, max_states_per_method=12):
            status = "ok" if verdict.ok else f"FAILED: {verdict.detail}"
            print(f"  {verdict.method}: {status}")
            if not verdict.ok:
                return 1
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """`lint`: run the static analyzer on a Viper file.

    Exit codes follow the linter convention: 0 = clean, 1 = findings,
    2 = the program could not be analyzed (parse failure) or the check
    selection was invalid.
    """
    from .analysis import CHECKS, lint_source

    if args.list_checks:
        for code in sorted(CHECKS):
            info = CHECKS[code]
            print(f"{code}  {info.severity:<7} {info.name:<22} {info.summary}")
        return 0
    if not args.file:
        print("lint: a FILE argument is required (or --list-checks)",
              file=sys.stderr)
        return 2
    try:
        result = lint_source(
            _read_source(args.file),
            select=args.select.split(",") if args.select else None,
            ignore=args.ignore.split(",") if args.ignore else None,
            error_on_warn=args.error_on_warn,
        )
    except ValueError as error:
        print(f"lint: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return result.exit_code
    if result.error is not None:
        print(result.error.render(), file=sys.stderr)
        return result.exit_code
    for finding in result.findings:
        where = f"{args.file}:{finding.line}" if finding.line else args.file
        scope = f" [{finding.method}]" if finding.method else ""
        print(f"{where}: {finding.severity} {finding.code}{scope}: "
              f"{finding.message}")
    noun = "finding" if len(result.findings) == 1 else "findings"
    tail = f", {result.suppressed} suppressed" if result.suppressed else ""
    print(f"{len(result.findings)} {noun}{tail}")
    return result.exit_code


def _parse_artifact(path: str, parse):
    """Parse one artifact file of `check`.  Text the parser refuses is a
    one-line ``reparse`` diagnostic naming the file and the position."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return parse(text)
    except wrappable_exceptions() as error:
        diagnostic = wrap_exception("reparse", error).diagnostic
        # A located message already starts with "line:column: ".
        separator = "" if diagnostic.location else " "
        raise ParseError(replace(
            diagnostic, message=f"{path}:{separator}{diagnostic.message}",
            location=None, hint="",
        )) from error


def cmd_check(args: argparse.Namespace) -> int:
    """Independent check: Viper source + Boogie file + certificate file."""
    ctx = _run_file_pipeline(args.file, "typecheck")
    program, type_info = ctx.program, ctx.type_info
    boogie_program = _parse_artifact(args.boogie, parse_boogie_program)
    certificate = _parse_artifact(args.certificate, parse_program_certificate)
    background = build_background(type_info.field_types)
    result = TranslationResult(
        viper_program=program,
        type_info=type_info,
        background=background,
        boogie_program=boogie_program,
        methods={},
        options=TranslationOptions(),
    )
    try:
        report = check_program_certificate(result, certificate)
    except RecursionError as error:
        # Parsed, but nested deeper than the recursive kernel walks.
        raise wrap_exception("check", error) from error
    if report.ok:
        print(f"ACCEPTED in {report.check_seconds:.3f}s")
        print(report.statement())
        return 0
    print(f"REJECTED: {report.error}", file=sys.stderr)
    return 1


def cmd_verify(args: argparse.Namespace) -> int:
    """`verify`: bounded back-end verdict per procedure."""
    ctx = _run_file_pipeline(args.file, "translate")
    result = ctx.translation
    interp = standard_interpretation(ctx.type_info.field_types)
    consts = constant_valuation(result.background)
    exit_code = 0
    for method in ctx.program.methods:
        proc = result.boogie_program.procedure(procedure_name(method.name))
        verdict = verify_procedure_bounded(
            result.boogie_program, proc, interp, fixed=consts
        )
        print(f"{method.name}: {verdict.verdict}")
        if verdict.verdict is Verdict.REFUTED:
            exit_code = 1
    return exit_code


def cmd_rules(args: argparse.Namespace) -> int:
    """`rules`: print the kernel's rule catalog."""
    from .certification.rules import render_catalog

    print(render_catalog())
    return 0


def _bench_reports(
    suite: Optional[str],
    limit: Optional[int],
    samples: int,
    jobs: Optional[int],
    names=None,
) -> list:
    """Run the harness ``samples`` times; one ``bench_report`` dict per run.

    ``names`` (a set of ``(suite, name)`` pairs) restricts the run to the
    files a baseline actually covered, so ``bench diff`` without CURRENT
    re-measures exactly what it will compare.
    """
    from .harness import bench_report, full_corpus, run_files, suite_files
    from .perf import HOST_REFERENCE_KEY, HostReference

    corpus = {suite: suite_files(suite)} if suite else full_corpus()
    selected = {}
    for suite_name, files in corpus.items():
        if names is not None:
            files = [f for f in files if (suite_name, f.name) in names]
        if limit is not None:
            files = files[: max(limit, 0)]
        if files:
            selected[suite_name] = files
    if not selected:
        return []
    reports = []
    for _ in range(max(samples, 1)):
        # The host's speed while this sample ran: what `bench diff`
        # calibrates by.
        with HostReference() as host:
            per_suite = {
                suite_name: run_files(files, jobs=jobs)
                for suite_name, files in selected.items()
            }
        report = bench_report(per_suite, jobs=jobs)
        report["meta"][HOST_REFERENCE_KEY] = host.median()
        reports.append(report)
    return reports


def cmd_bench_record(args: argparse.Namespace) -> int:
    """`bench record`: append baseline sample(s) to the history store."""
    from .perf import DEFAULT_HISTORY_FILE, append_record, make_record

    reports = _bench_reports(args.suite, args.limit, args.samples, args.jobs)
    if not reports or not any(r.get("suites") for r in reports):
        print("bench record: no corpus files selected", file=sys.stderr)
        return 2
    path = args.out or DEFAULT_HISTORY_FILE
    for report in reports:
        append_record(path, make_record(report, label=args.label))
    files = sum(
        len(payload["files"])
        for payload in reports[0]["suites"].values()
    )
    print(
        f"recorded {len(reports)} sample(s) of {files} file(s) to {path}"
        + (f" (label {args.label!r})" if args.label else "")
    )
    return 0


def cmd_bench_diff(args: argparse.Namespace) -> int:
    """`bench diff`: statistically compare against a recorded baseline.

    Exit codes mirror ``lint``/``tcb check``: 0 = no regression, 1 =
    regression(s), 2 = nothing comparable / unreadable history.
    """
    from .perf import (
        HistoryError,
        compare_reports,
        environment_fingerprint,
        file_records,
        read_history,
    )

    if not args.base:
        print("bench diff: BASE history file required", file=sys.stderr)
        return 2
    try:
        base_records = read_history(args.base)
        if args.label:
            base_records = [r for r in base_records if r.label == args.label]
            if not base_records:
                raise HistoryError(
                    f"{args.base}: no records with label {args.label!r}"
                )
        if args.current:
            current_records = read_history(args.current)
        else:
            current_records = None
    except (OSError, HistoryError) as error:
        print(f"bench diff: {error}", file=sys.stderr)
        return 2
    base_reports = [r.report for r in base_records]
    base_fp = base_records[-1].fingerprint
    if current_records is not None:
        current_reports = [r.report for r in current_records]
        current_fp = current_records[-1].fingerprint
    else:
        # Re-run exactly the files the baseline covered, live.
        covered = set(file_records(base_reports, suite=args.suite))
        current_reports = _bench_reports(
            args.suite, args.limit, args.samples, args.jobs, names=covered
        )
        current_fp = environment_fingerprint()
    diff = compare_reports(
        base_reports,
        current_reports,
        suite=args.suite,
        base_fingerprint=base_fp,
        current_fingerprint=current_fp,
    )
    if args.json is not None:
        payload = json.dumps(diff.to_dict(), indent=2)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"wrote {args.json}")
        return diff.exit_code
    print(diff.render())
    return diff.exit_code


def cmd_bench(args: argparse.Namespace) -> int:
    """`bench`: run the harness (optionally in parallel), dump JSON/corpus.

    ``bench record`` / ``bench diff`` dispatch to the performance
    observatory (:mod:`repro.perf`).
    """
    from .harness import (
        dump_corpus,
        full_corpus,
        render_bench_json,
        render_detail_table,
        render_table1,
        run_files,
        suite_files,
    )

    if args.target == "record":
        return cmd_bench_record(args)
    if args.target == "diff":
        return cmd_bench_diff(args)
    if args.dump:
        count = dump_corpus(args.dump)
        print(f"wrote {count} corpus files under {args.dump}")
        return 0
    jobs = args.jobs

    def limited(files):
        return files[: max(args.limit, 0)] if args.limit is not None else files

    if args.target:
        per_suite = {
            args.target: run_files(limited(suite_files(args.target)), jobs=jobs)
        }
        print(render_detail_table(per_suite[args.target], f"{args.target} suite"))
    else:
        per_suite = {
            suite: run_files(limited(files), jobs=jobs)
            for suite, files in full_corpus().items()
        }
        print(render_table1(per_suite))
    if args.json is not None:
        payload = render_bench_json(per_suite, jobs=jobs)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"wrote {args.json}")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """`fuzz`: adversarially fuzz the trusted certification kernel.

    Exit code 0 iff the run is clean — no pipeline crash, no kernel
    crash, and no kernel-accepted mutant that the differential oracle
    refutes.  Kernel *rejections* of corrupted artifacts are the expected
    outcome (the kernel doing its job), not failures.
    """
    from .fuzz import FuzzConfig, FuzzCorpus, replay_record, run_fuzz

    if args.replay:
        record = FuzzCorpus.load(args.replay)
        report = replay_record(record, minimize=not args.no_minimize)
    else:
        config = FuzzConfig(
            seed=args.seed,
            iterations=args.iterations,
            time_budget=args.time_budget,
            jobs=args.jobs,
            corpus_dir=args.corpus_dir,
            minimize=not args.no_minimize,
        )
        report = run_fuzz(config)
    print(report.summary())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(report.to_json() + "\n")
        print(f"wrote {args.json}")
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """`serve`: run the long-lived certification server (repro.service)."""
    from .service import run_server, ServerConfig
    from .service.admission import RequestLimits

    config = ServerConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        use_threads=args.threads,
        queue_limit=args.queue_limit,
        request_timeout=args.request_timeout,
        recycle_after=args.recycle_after,
        cache_dir=args.cache_dir,
        cache_max_bytes=args.cache_bytes,
        limits=RequestLimits(max_source_bytes=args.max_source_bytes),
        drain_grace=args.drain_grace,
        quiet=False,
        trace_dir=args.trace_dir,
        trace_sample=args.trace_sample,
        trace_rate=args.trace_rate,
        trace_seed=args.trace_seed,
    )
    return run_server(config)


def cmd_trace(args: argparse.Namespace) -> int:
    """`trace summarize`: aggregate table + flame tree from trace files."""
    from .trace import read_many, render_summary, summary_to_dict

    try:
        spans = read_many(args.files)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"trace: {error}", file=sys.stderr)
        return 2
    if getattr(args, "json", None) is not None:
        payload = json.dumps(summary_to_dict(spans), indent=2)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"wrote {args.json}")
    else:
        print(render_summary(spans))
    return 0 if spans else 1


def cmd_tcb(args: argparse.Namespace) -> int:
    """`tcb check`: machine-check the trust boundary over repro's source.

    Exit codes mirror ``lint``: 0 = the boundary holds, 1 = findings,
    2 = the tree (or the inventory document) could not be analyzed.
    """
    from .tcb import ALL_TCB_CHECK_IDS, TB_CHECKS, check_tree

    if args.list_checks:
        for code in ALL_TCB_CHECK_IDS:
            info = TB_CHECKS[code]
            print(f"{code}  {info.severity:<7} {info.name:<32} {info.summary}")
        return 0
    kwargs = {}
    if args.root:
        kwargs["src_root"] = args.root
    if args.doc:
        kwargs["doc_path"] = args.doc
    elif args.no_doc:
        kwargs["use_default_doc"] = False
    result = check_tree(**kwargs)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return result.exit_code
    if result.error is not None:
        print(result.render(), file=sys.stderr)
        return result.exit_code
    print(result.render())
    return result.exit_code


def cmd_loadgen(args: argparse.Namespace) -> int:
    """`loadgen`: replay the corpus against a server; report latency/cache."""
    from .service.client import ServiceError
    from .service.loadgen import LoadgenConfig, run_loadgen, summarise

    config = LoadgenConfig(
        host=args.host,
        port=args.port,
        requests=args.requests,
        concurrency=args.concurrency,
        suite=args.suite,
        warmup=args.warmup,
        baseline=args.baseline,
        defects=args.defects,
        report_path=args.report,
    )
    try:
        report = run_loadgen(config)
    except ServiceError as error:
        print(f"loadgen failed: {error}", file=sys.stderr)
        return 1
    if args.json is not None:
        payload = json.dumps(report, indent=2)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"wrote {args.json}")
    print(summarise(report))
    return 0 if report["outcomes"]["errors"] == 0 else 1


def _version() -> str:
    """The package version.

    The in-tree ``repro.__version__`` is the source of truth (it tracks
    the checkout actually being executed); installed distribution
    metadata is the fallback for the unusual case of a stripped package.
    """
    try:
        from . import __version__

        return __version__
    except Exception:
        from importlib.metadata import version

        return version("repro")


def build_parser() -> argparse.ArgumentParser:
    """The argparse command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Validated Viper-to-Boogie translation"
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    translate = sub.add_parser("translate", help="translate a Viper file to Boogie")
    translate.add_argument("file")
    translate.add_argument("-o", "--output")
    certify = sub.add_parser("certify", help="translate and certify a Viper file")
    certify.add_argument("file")
    certify.add_argument("-o", "--output", help="write the certificate here")
    certify.add_argument("--boogie-output", help="also write the Boogie program")
    certify.add_argument("--oracle", action="store_true",
                         help="additionally co-execute both semantics")
    certify.add_argument("--trace", metavar="PATH",
                         help="write a Chrome-trace JSON of the run "
                              "(open in about:tracing / Perfetto, or feed "
                              "to 'repro trace summarize')")
    for command in (translate, certify):
        command.add_argument("--wd-at-calls", action="store_true",
                             help="emit wd checks at call sites (disable the "
                                  "non-local optimisation)")
        command.add_argument("--no-fastpath", action="store_true",
                             help="disable the permission-literal fast path")
        command.add_argument("--always-havoc", action="store_true",
                             help="emit the exhale heap havoc even for pure "
                                  "assertions")
        command.add_argument("--timings", action="store_true",
                             help="print per-stage instrumentation records")
        command.add_argument("--no-analyze", action="store_true",
                             help="skip the advisory static-analysis stage")
    lint = sub.add_parser("lint", help="static analysis (advisory lints)")
    lint.add_argument("file", nargs="?",
                      help="the Viper source to analyze")
    lint.add_argument("--json", action="store_true",
                      help="emit findings as machine-readable JSON")
    lint.add_argument("--select", metavar="IDS",
                      help="comma-separated check IDs to run exclusively "
                           "(e.g. VPR001,VPR008)")
    lint.add_argument("--ignore", metavar="IDS",
                      help="comma-separated check IDs to drop")
    lint.add_argument("--error-on-warn", action="store_true",
                      help="promote every warning finding to error severity")
    lint.add_argument("--list-checks", action="store_true",
                      help="print the check catalog and exit")
    check = sub.add_parser("check", help="independently check a certificate")
    check.add_argument("file", help="the Viper source")
    check.add_argument("boogie", help="the Boogie translation (.bpl)")
    check.add_argument("certificate", help="the certificate (.cert)")
    verify = sub.add_parser("verify", help="bounded back-end verification")
    verify.add_argument("file")
    sub.add_parser("rules", help="list the kernel's proof rules")
    bench = sub.add_parser(
        "bench",
        help="run the evaluation harness (or 'record'/'diff' its history)",
    )
    bench.add_argument("target", nargs="?", metavar="TARGET",
                       choices=["Viper", "Gobra", "VerCors", "MPP",
                                "record", "diff"],
                       help="a suite to run, or 'record' (append a baseline "
                            "to the history store) / 'diff' (compare against "
                            "a recorded baseline)")
    bench.add_argument("base", nargs="?", metavar="BASE",
                       help="(diff) the baseline history JSONL")
    bench.add_argument("current", nargs="?", metavar="CURRENT",
                       help="(diff) a current history JSONL; omitted = "
                            "re-run the baseline's files live")
    bench.add_argument("--dump", metavar="DIR",
                       help="write the corpus .vpr files to DIR instead of "
                            "running the pipeline")
    bench.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                       help="fan out over N worker processes (0 = one per "
                            "CPU; default: serial)")
    bench.add_argument("--json", nargs="?", const="-", metavar="PATH",
                       help="also write machine-readable output to PATH "
                            "('-' or no value = stdout)")
    bench.add_argument("--suite", choices=["Viper", "Gobra", "VerCors", "MPP"],
                       help="(record/diff) restrict to one suite")
    bench.add_argument("--limit", type=int, default=None, metavar="N",
                       help="only the first N files per suite (a fast CI "
                            "subset; applies to plain runs too)")
    bench.add_argument("--samples", type=int, default=1, metavar="N",
                       help="(record/diff) repeat the harness N times — "
                            "each run is one sample for the bootstrap "
                            "comparator (default: 1)")
    bench.add_argument("--label", default="", metavar="NAME",
                       help="(record/diff) label the recorded samples / "
                            "select baseline samples by label")
    bench.add_argument("--out", metavar="PATH",
                       help="(record) the history file to append to "
                            "(default: benchmarks/results/history/"
                            "history.jsonl)")
    fuzz = sub.add_parser("fuzz",
                          help="adversarially fuzz the certification kernel")
    fuzz.add_argument("--seed", type=int, default=0, metavar="N",
                      help="root seed of the deterministic schedule "
                           "(default: 0)")
    fuzz.add_argument("--iterations", "-n", type=int, default=100, metavar="N",
                      help="number of fuzz cases to run (default: 100)")
    fuzz.add_argument("--time-budget", type=float, default=None,
                      metavar="SECONDS",
                      help="stop dispatching new cases after this many "
                           "seconds (already-dispatched cases complete)")
    fuzz.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                      help="fan out over N worker processes (0 = one per "
                           "CPU; default: serial)")
    fuzz.add_argument("--corpus-dir", default="fuzz-corpus", metavar="DIR",
                      help="replayable failure corpus directory "
                           "(default: fuzz-corpus)")
    fuzz.add_argument("--no-minimize", action="store_true",
                      help="skip delta-debugging minimization of failures")
    fuzz.add_argument("--replay", metavar="PATH",
                      help="re-judge one persisted failure (a corpus bucket "
                           "directory or its repro.json) instead of fuzzing")
    fuzz.add_argument("--json", metavar="PATH",
                      help="also write the machine-readable fuzz report "
                           "to PATH")
    serve = sub.add_parser("serve",
                           help="run the certification server (repro.service)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8421,
                       help="listening port (0 = ephemeral; default: 8421)")
    serve.add_argument("--jobs", "-j", type=int, default=0, metavar="N",
                       help="worker processes (0 = one per CPU; default: 0)")
    serve.add_argument("--threads", action="store_true",
                       help="use in-process worker threads instead of a "
                            "process pool")
    serve.add_argument("--queue-limit", type=int, default=64, metavar="N",
                       help="max queued+in-flight requests before 429 "
                            "(default: 64)")
    serve.add_argument("--request-timeout", type=float, default=120.0,
                       metavar="SECONDS", help="per-request deadline "
                       "(default: 120)")
    serve.add_argument("--recycle-after", type=int, default=500, metavar="N",
                       help="recycle worker processes after N jobs "
                            "(0 = never; default: 500)")
    serve.add_argument("--cache-dir", metavar="DIR",
                       help="disk cache root for untrusted artifacts "
                            "(default: in-memory caching only)")
    serve.add_argument("--cache-bytes", type=int, default=64 * 1024 * 1024,
                       metavar="N", help="disk cache LRU size bound "
                       "(default: 64 MiB)")
    serve.add_argument("--max-source-bytes", type=int, default=256 * 1024,
                       metavar="N", help="largest accepted source "
                       "(default: 256 KiB)")
    serve.add_argument("--drain-grace", type=float, default=10.0,
                       metavar="SECONDS",
                       help="shutdown grace for in-flight work (default: 10)")
    serve.add_argument("--trace-dir", metavar="DIR",
                       help="persist request traces here: the N slowest, "
                            "every errored request, and a sampled fraction "
                            "(default: tracing off)")
    serve.add_argument("--trace-sample", type=int, default=10, metavar="N",
                       help="how many slowest-request traces to keep "
                            "(default: 10)")
    serve.add_argument("--trace-rate", type=float, default=0.0, metavar="R",
                       help="additionally persist this fraction of all "
                            "requests, chosen by trace-id hash "
                            "(default: 0.0)")
    serve.add_argument("--trace-seed", type=int, default=0, metavar="N",
                       help="salt for the deterministic trace sampler "
                            "(default: 0)")
    loadgen = sub.add_parser("loadgen",
                             help="replay the corpus against a running server")
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=8421)
    loadgen.add_argument("--requests", "-n", type=int, default=144, metavar="N",
                         help="total requests to send (default: 144 — the "
                              "72-file corpus twice)")
    loadgen.add_argument("--concurrency", "-c", type=int, default=8, metavar="N",
                         help="client threads (default: 8)")
    loadgen.add_argument("--suite",
                         choices=["Viper", "Gobra", "VerCors", "MPP"],
                         help="replay one suite instead of all 72 files")
    loadgen.add_argument("--warmup", action="store_true",
                         help="send each program once, unmeasured, before "
                              "the run (reports warm-cache behaviour)")
    loadgen.add_argument("--defects", type=int, default=0, metavar="N",
                         help="mix N lint-defective requests into the run "
                              "(exercises the 422 admission fast path)")
    loadgen.add_argument("--baseline", type=int, default=0, metavar="N",
                         help="also time N single-shot CLI certifications "
                              "for the speedup comparison")
    loadgen.add_argument("--report", metavar="PATH",
                         default=os.path.join("benchmarks", "results",
                                              "loadgen_report.json"),
                         help="write the JSON latency report here "
                              "(default: benchmarks/results/"
                              "loadgen_report.json; '' disables)")
    loadgen.add_argument("--json", nargs="?", const="-", metavar="PATH",
                         help="print the full JSON report to stdout "
                              "(or write it to PATH)")
    trace = sub.add_parser("trace", help="inspect exported request traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summarize = trace_sub.add_parser(
        "summarize",
        help="aggregate span table plus a flame tree of the slowest trace",
    )
    trace_summarize.add_argument(
        "files", nargs="+", metavar="FILE",
        help="Chrome-trace or JSONL span files (certify --trace output, "
             "or *.trace.json files from serve --trace-dir)",
    )
    trace_summarize.add_argument(
        "--json", nargs="?", const="-", metavar="PATH",
        help="emit the summary (stats table + flame tree) as JSON to "
             "stdout, or write it to PATH",
    )
    tcb = sub.add_parser(
        "tcb",
        help="machine-check the trust boundary over repro's own source",
    )
    tcb_sub = tcb.add_subparsers(dest="tcb_command", required=True)
    tcb_check = tcb_sub.add_parser(
        "check",
        help="run the TB001-TB008 trust-boundary checks "
             "(docs/TCB_CHECK.md)",
    )
    tcb_check.add_argument(
        "--json", action="store_true",
        help="print the full result as JSON",
    )
    tcb_check.add_argument(
        "--root", metavar="DIR", default=None,
        help="source tree to analyze (default: the directory containing "
             "the installed repro package)",
    )
    tcb_check.add_argument(
        "--doc", metavar="PATH", default=None,
        help="TRUSTED_BASE.md inventory to cross-check (default: the "
             "checkout's docs/TRUSTED_BASE.md; TB008 is skipped when "
             "absent)",
    )
    tcb_check.add_argument(
        "--no-doc", action="store_true",
        help="skip the TB008 doc-consistency check",
    )
    tcb_check.add_argument(
        "--list-checks", action="store_true",
        help="list the TB check catalog and exit",
    )
    return parser


def _silence_stdout() -> None:
    """Point stdout at /dev/null so interpreter shutdown can't re-raise
    BrokenPipeError while flushing."""
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    except (OSError, ValueError):
        pass


def _flush_stdout_safely() -> int:
    """Flush stdout; returns 1 if the consumer is gone, else 0."""
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _silence_stdout()
        return 1
    except (OSError, ValueError):
        return 1
    return 0


class _Terminated(Exception):
    """Raised by the SIGTERM handler to unwind into a clean 143 exit."""


def _raise_terminated(signum, frame):  # pragma: no cover - signal context
    raise _Terminated()


def main(argv: Optional[list] = None) -> int:
    """Entry point; returns the process exit code.

    Exit codes: 0 success, 1 command-level failure (rejected certificate,
    refuted procedure), 2 pipeline diagnostic (parse/type/translate error),
    130 on ``SIGINT`` (the conventional ``128 + SIGINT``), 143 on
    ``SIGTERM`` (``128 + SIGTERM``, after a clean unwind — ``serve``
    additionally drains in-flight requests and flushes its disk cache
    before exiting).
    """
    args = build_parser().parse_args(argv)
    handlers = {
        "translate": cmd_translate,
        "certify": cmd_certify,
        "lint": cmd_lint,
        "check": cmd_check,
        "verify": cmd_verify,
        "rules": cmd_rules,
        "bench": cmd_bench,
        "fuzz": cmd_fuzz,
        "serve": cmd_serve,
        "loadgen": cmd_loadgen,
        "trace": cmd_trace,
        "tcb": cmd_tcb,
    }
    previous_sigterm = None
    if threading.current_thread() is threading.main_thread():
        # Long-running commands (bench over the corpus, fuzz campaigns,
        # serve) must terminate cleanly under SIGTERM.  `serve` swaps in
        # its own asyncio handler that drains before exiting.
        try:
            previous_sigterm = signal.signal(signal.SIGTERM, _raise_terminated)
        except (ValueError, OSError):  # pragma: no cover - exotic platforms
            previous_sigterm = None
    try:
        code = handlers[args.command](args)
        _flush_stdout_safely()
        return code
    except BrokenPipeError:
        # Output was piped into a consumer that closed early (e.g. head).
        _silence_stdout()
        return 0
    except KeyboardInterrupt:
        _flush_stdout_safely()
        print("interrupted", file=sys.stderr)
        return 130
    except _Terminated:
        _flush_stdout_safely()
        print("terminated", file=sys.stderr)
        return 143
    except PipelineError as error:
        print(error.diagnostic.render(), file=sys.stderr)
        return 2
    finally:
        if previous_sigterm is not None:
            try:
                signal.signal(signal.SIGTERM, previous_sigterm)
            except (ValueError, OSError):  # pragma: no cover
                pass


if __name__ == "__main__":
    sys.exit(main())
