"""repro — validated Viper-to-Boogie translation.

Trust: **untrusted-but-checked** — re-export hub; importing it pulls in
untrusted orchestration alongside the kernel.

A Python reproduction of *"Towards Trustworthy Automated Program
Verifiers: Formally Validating Translations into an Intermediate
Verification Language"* (PLDI 2024): executable semantics for a core
subset of Viper and of Boogie, the instrumented Viper-to-Boogie front-end
translation, and per-run forward-simulation certificates generated from
translator hints and checked by an independent kernel.

Typical use::

    from repro import certify_source

    report = certify_source('''
        field f: Int
        method m(x: Ref) requires acc(x.f, write) ensures acc(x.f, write)
        { x.f := 1 }
    ''')
    assert report.ok
    print(report.statement())

The subpackages:

* :mod:`repro.viper` — Viper substrate (AST, parser, typechecker, big-step
  semantics with permissions, bounded correctness checking),
* :mod:`repro.boogie` — Boogie substrate (AST, typechecker, small-step
  continuation semantics, polymorphic-map desugaring, wlp back-end),
* :mod:`repro.frontend` — the Viper-to-Boogie translation with hint
  instrumentation (the system under validation),
* :mod:`repro.certification` — the paper's contribution: certificate
  generation (tactic), the independent proof-checking kernel, semantic
  simulation judgements, and the final-theorem assembly,
* :mod:`repro.pipeline` — the staged end-to-end flow (parse → desugar →
  typecheck → translate → generate → render → reparse → check) with
  per-stage instrumentation, structured diagnostics, a content-addressed
  artifact cache, and a parallel corpus executor,
* :mod:`repro.service` — certification-as-a-service: an asyncio HTTP
  server over a persistent worker pool, a restart-surviving disk cache
  for the untrusted artifacts (the kernel always re-checks fresh),
  admission control with backpressure, Prometheus metrics, and a
  corpus-replaying load generator (``repro serve`` / ``repro loadgen``),
* :mod:`repro.harness` — the evaluation corpus and pipeline (Tables 1–6),
* :mod:`repro.fuzz` — adversarial fuzzing of the certification kernel
  (seeded program generation, artifact mutators, differential-oracle
  escalation, a replayable failure corpus, delta-debugging minimizers).
"""

from .certification import (  # noqa: F401
    certify_translation,
    check_program_certificate,
    generate_program_certificate,
    parse_program_certificate,
    render_program_certificate,
    TheoremReport,
)
from .frontend import translate_program, TranslationOptions, TranslationResult  # noqa: F401
from .viper import check_program, parse_program  # noqa: F401
from .pipeline import (  # noqa: F401
    ArtifactCache,
    Diagnostic,
    PipelineContext,
    PipelineError,
    PipelineInstrumentation,
    run_pipeline,
)

__version__ = "1.8.0"


def translate_source(source, options=None, **kwargs):
    """Parse, type-check, and translate a Viper program given as text.

    Loops, ``old()`` expressions, ``new`` allocations, and complex call
    arguments are desugared into the core subset first.  This is a thin
    wrapper over :func:`repro.pipeline.run_pipeline` (stage ``translate``);
    keyword arguments (``instrumentation=``, ``cache=``, ``wrap_errors=``)
    are forwarded to the pipeline.
    """
    from .pipeline import translate_source as _translate_source

    return _translate_source(source, options, **kwargs)


def certify_source(source, options=None, **kwargs):
    """Run the full pipeline on Viper source text and return the theorem
    report (generate the certificate, serialise it, and re-check it on the
    independent trusted path).  Thin wrapper over
    :func:`repro.pipeline.run_pipeline` (stage ``check``)."""
    from .pipeline import certify_source as _certify_source

    return _certify_source(source, options, **kwargs)
