"""Seeded inputs and known answers of the benchmark's workloads.

Everything here is a function of the seed: one seed gives byte-identical
programs, request order and edits, so two runs of a seed do the same
work, and another seed gives other ones.  Inputs come in passes, every
program once in a seeded order, and runs measure whole passes.  Every
program and edit must be accepted; the reject controls must be rejected.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Iterator, List, Sequence, Tuple

from repro.boogie.parser import parse_boogie_program
from repro.certification import check_program_certificate, parse_program_certificate
from repro.fuzz.mutators import mutate_single_method
from repro.harness.corpus import full_corpus, generate_file
from repro.pipeline import run_pipeline
from repro.viper import parse_program
from repro.viper.pretty import count_loc

#: A named Viper program: ``(name, source)``.
Program = Tuple[str, str]

#: ``(Viper LoC, methods)`` of the ``large`` programs: the corpus
#: generator at sizes past the corpus, whose largest file has 354 LoC and
#: 8 methods.  Like the corpus they declare at most three fields.
LARGE_SHAPES = ((1000, 30), (1200, 36), (1400, 42), (1600, 48), (1800, 54), (2000, 60))
#: ``generate_file``'s LoC target per LoC it produces at these shapes.
LARGE_TARGET_SCALE = 1.33
#: Programs generated per shape, and the ones nearest its LoC that are
#: kept, so the seed varies the programs' content but hardly their size.
#: Two per shape make the latency percentiles depend less on the seed.
LARGE_CANDIDATES = 8
LARGE_PER_SHAPE = 2
#: Draws that repeat an earlier source before a program's edits count as
#: used up.
EDIT_REDRAWS = 32
#: The comment the Boogie pretty-printer puts above the background axiom
#: that the falsified-axiom control negates (``repro.frontend.background``).
ZERO_MASK_AXIOM = "// ZeroMask holds no permission"


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"perfbench/{purpose}/{seed}")


def corpus_programs() -> List[Program]:
    """The paper's 72 synthesised programs (``repro.harness.full_corpus``)."""
    return [
        (f"{suite}/{item.name}", item.source)
        for suite, items in full_corpus().items()
        for item in items
    ]


def large_programs(seed: int) -> List[Program]:
    """:data:`LARGE_PER_SHAPE` generated programs per :data:`LARGE_SHAPES`
    entry, seed in their names."""
    programs = []
    for index, (loc, methods) in enumerate(LARGE_SHAPES):
        candidates = [
            generate_file(
                "Large", f"large-{seed}-{index}-{draw}",
                round(loc * LARGE_TARGET_SCALE), methods,
            )
            for draw in range(LARGE_CANDIDATES)
        ]
        candidates.sort(key=lambda item: abs(count_loc(item.source) - loc))
        programs += [(item.name, item.source) for item in candidates[:LARGE_PER_SHAPE]]
    return programs


def warmup_program() -> Program:
    """A program outside the corpus, for the services' discarded warm-up."""
    return ("warmup", generate_file("Warmup", "warmup", 60, 4).source)


def passes(programs: Sequence[Program], seed: int, purpose: str) -> Iterator[List[Program]]:
    """Endless passes over ``programs``, each in a seeded order.

    Any three consecutive operations name three programs, also across a
    pass boundary, so that two clients never have one program in flight
    twice.
    """
    rng = _rng(seed, purpose)
    last: set = set()
    while True:
        order = list(programs)
        rng.shuffle(order)
        while len(order) > 4 and last & {name for name, _ in order[:2]}:
            rng.shuffle(order)
        yield order
        last = {name for name, _ in order[-2:]}


def edit_rounds(programs: Sequence[Program], seed: int, rounds: int) -> List[List[Program]]:
    """``rounds`` passes of edited programs.  In each, every program, in a
    seeded order, carries one inert edit to one of its methods
    (``repro.fuzz.mutators.mutate_single_method``: ``assert true``
    appended to a body, or ``&& true`` to a postcondition).

    An edit that reproduces a source seen before, an original or an
    earlier edit, would be a memory-tier hit rather than an edit, so it is
    drawn again; a program whose draws keep repeating drops out.
    """
    rng = _rng(seed, "edit")
    order = list(programs)
    rng.shuffle(order)
    parsed = [(name, parse_program(source)) for name, source in order]
    seen = {source for _, source in programs}
    used_up = set()
    result = []
    for _ in range(rounds):
        batch = []
        for name, program in parsed:
            if name in used_up:
                continue
            for _ in range(EDIT_REDRAWS):
                edit = mutate_single_method(rng, program)
                if edit.source not in seen:
                    seen.add(edit.source)
                    batch.append((f"{name} ({edit.kind} edit of {edit.method})", edit.source))
                    break
            else:
                used_up.add(name)
        result.append(batch)
    return result


@dataclasses.dataclass(frozen=True)
class Control:
    """A certificate check with a known answer."""

    name: str
    expect_accept: bool
    accepted: bool
    #: The kernel's reason for a rejection.
    detail: str = ""


def reject_controls(programs: Sequence[Program], seed: int) -> List[Control]:
    """The two checks the kernel must refuse, built through the public API
    from a seeded pick of ``programs``: its certificate with one method
    block dropped, and its Boogie program with the background axiom
    ``ZeroMask holds no permission`` negated.  The second guards any fast
    path for background axioms: it must still reject."""
    rng = _rng(seed, "control")
    name, source = rng.choice(list(programs))
    ctx = run_pipeline(source, upto="render")
    certificate = parse_program_certificate(ctx.certificate_text)
    blocks = list(certificate.methods)
    dropped = blocks.pop(rng.randrange(len(blocks)))
    falsified = parse_boogie_program(falsify_zero_mask(ctx.boogie_text))
    checks = (
        (
            f"{name} without the certificate block of {dropped.method}",
            ctx.translation,
            dataclasses.replace(certificate, methods=tuple(blocks)),
        ),
        (
            f"{name} with the ZeroMask axiom negated",
            dataclasses.replace(ctx.translation, boogie_program=falsified),
            certificate,
        ),
    )
    controls = []
    for label, translation, checked in checks:
        report = check_program_certificate(translation, checked)
        controls.append(Control(label, False, report.ok, report.error))
    return controls


def falsify_zero_mask(boogie_text: str) -> str:
    """``boogie_text`` with ``==`` turned into ``!=`` in the ZeroMask axiom."""
    lines = boogie_text.splitlines()
    axiom = lines.index(ZERO_MASK_AXIOM) + 1
    if " == " not in lines[axiom]:
        raise ValueError(f"unexpected ZeroMask axiom: {lines[axiom]}")
    lines[axiom] = lines[axiom].replace(" == ", " != ", 1)
    return "\n".join(lines) + "\n"
