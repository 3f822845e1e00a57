"""Mutator coverage: every class produces kernel rejections, never crashes.

This is the acceptance bar of the fuzzing machinery: for each of the 22
mutator classes there is at least one (subject, seed) combination on
which the mutator fires and the trusted reparse+check path **rejects**
the corrupted artifact.  Inert corruptions (which the kernel would be
right to accept) are a mutator-design bug, caught here.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.boogie.ast import AxiomDecl
from repro.frontend.background import BACKGROUND_AXIOMS
from repro.fuzz.driver import _judge_mutation, FuzzConfig, OPTION_VARIANTS
from repro.fuzz.generate import SEED_CORPUS
from repro.fuzz.mutators import (
    axiom_perturbations,
    make_subject,
    Mutation,
    MUTATORS,
    MUTATORS_BY_NAME,
)
from repro.pipeline import run_pipeline

#: Mutators that need a specific translation variant to fire (mirrors
#: repro.fuzz.driver._PREFERRED_SUBJECT).
_VARIANT_FOR = {
    "hints-claim-wd-omitted": "wd-at-calls",
    "hints-lie-fastpath": "no-fastpath",
}

_CONFIG = FuzzConfig()
_SUBJECTS = {}


def _subject(options_name: str):
    if options_name not in _SUBJECTS:
        ctx = run_pipeline(SEED_CORPUS[0], options=OPTION_VARIANTS[options_name])
        assert ctx.report.ok
        _SUBJECTS[options_name] = make_subject(ctx.translation)
    return _SUBJECTS[options_name]


def test_catalog_shape():
    assert len(MUTATORS) == 22
    assert set(MUTATORS_BY_NAME) == {m.name for m in MUTATORS}
    by_artifact = {}
    for mutator in MUTATORS:
        by_artifact.setdefault(mutator.artifact, []).append(mutator)
        assert mutator.attacks, mutator.name
        if mutator.artifact == "cert":
            assert "§" in mutator.spec_section, (
                f"{mutator.name} must cite a CERTIFICATE_FORMAT.md section"
            )
    assert {artifact: len(muts) for artifact, muts in by_artifact.items()} == {
        "boogie": 8, "hints": 7, "cert": 7,
    }


@pytest.mark.parametrize("mutator", MUTATORS, ids=lambda m: m.name)
def test_every_class_draws_a_kernel_rejection(mutator):
    subject = _subject(_VARIANT_FOR.get(mutator.name, "default"))
    rejected = False
    for attempt in range(8):
        mutation = mutator.apply(random.Random(attempt), subject)
        if mutation is None:
            continue
        assert isinstance(mutation, Mutation)
        assert mutation.mutator == mutator.name
        outcome, detail = _judge_mutation(mutation, subject, _CONFIG)
        assert outcome in {"mutant-reject", "mutant-accept-benign", "mutant-noop"}, (
            f"{mutator.name}: {outcome}: {detail}"
        )
        if outcome == "mutant-reject":
            rejected = True
            break
    assert rejected, f"{mutator.name} never produced a kernel rejection"


def test_mutations_are_deterministic():
    subject = _subject("default")
    for mutator in MUTATORS:
        first = mutator.apply(random.Random(5), subject)
        second = mutator.apply(random.Random(5), subject)
        if first is None:
            assert second is None
        else:
            assert second is not None
            assert first.certificate_text == second.certificate_text
            assert first.detail == second.detail


def _emitting(subject, axioms):
    """A Boogie mutation of ``subject`` whose program emits ``axioms``."""
    program = subject.result.boogie_program
    return Mutation(
        mutator="boogie-perturb-axiom",
        artifact="boogie",
        result=replace(subject.result, boogie_program=replace(program, axioms=tuple(axioms))),
        certificate_text=subject.certificate_text,
        detail="axioms replaced",
    )


def _perturbed_schema(kind: str) -> AxiomDecl:
    schema = BACKGROUND_AXIOMS[0]
    return AxiomDecl(dict(axiom_perturbations(schema.expr, random.Random(0)))[kind], schema.comment)


def test_judge_hands_a_true_non_schema_axiom_to_the_semantic_oracle():
    """A renamed bound variable keeps a schema true but makes it no schema
    instance: the kernel evaluates and accepts it, the judge's re-evaluation
    of every axiom agrees, and the semantic oracle finds the mutant inert."""
    subject = _subject("default")
    axioms = (_perturbed_schema("rename-bound"),) + subject.result.boogie_program.axioms[1:]
    outcome, detail = _judge_mutation(_emitting(subject, axioms), subject, _CONFIG)
    assert outcome == "mutant-accept-benign", detail


def test_judge_catches_a_false_axiom_that_schema_recognition_let_through(monkeypatch):
    """Schema recognition is the kernel's fast path.  The judge evaluates
    every axiom again without it, so a kernel whose schema list held a false
    axiom is an oracle disagreement, not a benign accept."""
    from repro.certification import theorem

    subject = _subject("default")
    false = _perturbed_schema("negate-body")
    mutation = _emitting(subject, subject.result.boogie_program.axioms + (false,))
    assert _judge_mutation(mutation, subject, _CONFIG)[0] == "mutant-reject"
    monkeypatch.setattr(theorem, "BACKGROUND_AXIOMS", theorem.BACKGROUND_AXIOMS + (false,))
    outcome, detail = _judge_mutation(mutation, subject, _CONFIG)
    assert outcome == "oracle-disagreement", detail
    assert "an axiom is false" in detail
