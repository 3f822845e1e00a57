"""The seeded program generator: determinism, well-typedness, coverage."""

from __future__ import annotations

import pytest

from repro.fuzz.generate import (
    derive_seed,
    generate_corpus,
    generate_program,
    GeneratorConfig,
    SEED_CORPUS,
)
from repro.pipeline import run_pipeline
from repro.viper.parser import parse_program
from repro.viper.typechecker import check_program


def test_generation_is_deterministic():
    first = generate_program(1234)
    second = generate_program(1234)
    assert first == second
    assert first.source == second.source


def test_different_seeds_differ():
    sources = {generate_program(seed).source for seed in range(8)}
    assert len(sources) > 1


def test_derive_seed_decorrelates():
    derived = [derive_seed(0, i) for i in range(64)]
    assert len(set(derived)) == len(derived)
    assert derived != list(range(64))
    # Different root seeds produce different streams.
    assert [derive_seed(1, i) for i in range(64)] != derived


@pytest.mark.parametrize("seed", range(12))
def test_generated_programs_are_well_typed(seed):
    generated = generate_program(derive_seed(99, seed))
    parse_program(generated.source)  # concrete syntax round-trips
    # Desugar + typecheck through the pipeline (loops/new/old lower to
    # the core subset before the type checker sees them).
    ctx = run_pipeline(generated.source, upto="typecheck")
    check_program(ctx.program)  # idempotent on the desugared core


@pytest.mark.parametrize("seed", range(6))
def test_generated_programs_certify(seed):
    generated = generate_program(derive_seed(7, seed))
    ctx = run_pipeline(generated.source)
    assert ctx.report.ok, ctx.report.error


def test_feature_metadata_matches_source():
    corpus = generate_corpus(0, 20)
    seen = set()
    for generated in corpus:
        seen |= set(generated.features)
        if "loops" in generated.features:
            assert "while" in generated.source
        if "new" in generated.features:
            assert "new(" in generated.source
        if "old" in generated.features:
            assert "old(" in generated.source
        if "calls" in generated.features:
            assert ":= m" in generated.source or " m" in generated.source
    # A modest corpus exercises every desugaring extension.
    assert {"loops", "new", "old", "calls"} <= seen


def test_feature_switches_prune_features():
    config = GeneratorConfig(
        allow_loops=False, allow_old=False, allow_new=False,
        allow_calls=False, allow_complex_call_args=False,
    )
    for generated in generate_corpus(3, 10, config):
        assert generated.features == ()
        assert "while" not in generated.source
        assert "new(" not in generated.source
        assert "old(" not in generated.source


def test_seed_corpus_certifies():
    for source in SEED_CORPUS:
        ctx = run_pipeline(source)
        assert ctx.report.ok, ctx.report.error
