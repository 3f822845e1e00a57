"""The background lemma: the seven schemas hold for every field profile.

The kernel evaluates no axiom whose expression equals one of
``repro.frontend.background.BACKGROUND_AXIOMS``
(:mod:`repro.certification.theorem`).  This file is what licenses that.
It is the executable analog of the paper's once-and-for-all Isabelle
lemma (Sec. 4.4): the standard interpretation satisfies the background
theory, whatever fields the program declares.

A field profile maps field names to Viper types.  The schemas are checked
with the full evaluator on the 21 *maximal canonical* profiles:

* the empty profile;
* the 4 one-field profiles;
* for each of the 16 ordered type pairs of the two smallest-named fields,
  those two plus two more fields of each of the 4 types, named to sort
  after them.

docs/TRUSTED_BASE.md ("The background lemma") gives the symmetry argument
why these cover every profile.  Its syntactic premises are checked here
too, so a schema that breaks them fails this file, not a proof on paper.
"""

from __future__ import annotations

import itertools

import pytest

from repro.boogie import BoogieProgram, check_axioms_bounded
from repro.boogie.ast import expr_children, expr_free_vars, Exists, Forall, FuncApp, TCon, TVar
from repro.frontend.background import (
    BACKGROUND_AXIOMS,
    build_background,
    constant_valuation,
    GOOD_MASK,
    ID_ON_POSITIVE,
    READ_HEAP,
    READ_MASK,
    standard_interpretation,
    UPD_HEAP,
    UPD_MASK,
    ZERO_MASK_CONST,
)
from repro.frontend.records import boogie_type_of
from repro.viper.ast import Type


def maximal_profiles():
    """(id, profile) for the 21 maximal canonical field profiles."""
    yield "empty", {}
    for typ in Type:
        yield typ.value, {"a": typ}
    for first, second in itertools.product(Type, repeat=2):
        profile = {"a": first, "b": second}
        for typ in Type:
            profile.update({f"x_{typ.value}_{index}": typ for index in range(2)})
        yield f"{first.value}-{second.value}", profile


PROFILES = list(maximal_profiles())


def test_the_profiles_are_the_canonical_ones():
    assert len(PROFILES) == 21
    # ``forall<T>`` ranges over exactly the four field types, one per Viper type.
    universe = standard_interpretation({}).type_universe
    assert sorted(map(str, universe)) == sorted({str(boogie_type_of(typ)) for typ in Type})
    for _name, profile in PROFILES[5:]:
        assert sorted(profile)[:2] == ["a", "b"]
        for typ in Type:
            assert sum(1 for name in sorted(profile)[2:] if profile[name] is typ) == 2


def _nodes(expr):
    yield expr
    for child in expr_children(expr):
        yield from _nodes(child)


@pytest.mark.parametrize("axiom", BACKGROUND_AXIOMS, ids=lambda axiom: axiom.comment)
def test_each_schema_meets_the_premises_of_the_symmetry_argument(axiom):
    """``forall<T>`` over a quantifier-free body that binds at most two
    ``Field T`` variables and names no field constant."""
    schema = axiom.expr
    assert isinstance(schema, Forall) and schema.type_vars == ("T",)
    field_vars = [name for name, typ in schema.bound if typ == TCon("Field", (TVar("T"),))]
    assert len(field_vars) <= 2
    assert all(not isinstance(typ, TCon) or typ.name != "Field" or name in field_vars
               for name, typ in schema.bound)
    nodes = list(_nodes(schema.body))
    assert not any(isinstance(node, (Forall, Exists)) for node in nodes)
    assert expr_free_vars(schema) <= {ZERO_MASK_CONST}
    functions = {node.name for node in nodes if isinstance(node, FuncApp)}
    assert functions <= {READ_HEAP, UPD_HEAP, READ_MASK, UPD_MASK, GOOD_MASK, ID_ON_POSITIVE}


@pytest.mark.parametrize("profile", [p for _, p in PROFILES], ids=[n for n, _ in PROFILES])
def test_every_schema_holds_on_a_maximal_canonical_profile(profile):
    background = build_background(profile)
    assert background.axioms is BACKGROUND_AXIOMS
    program = BoogieProgram(
        type_decls=background.type_decls,
        consts=background.consts,
        functions=background.functions,
        axioms=background.axioms,
    )
    result = check_axioms_bounded(
        program, standard_interpretation(profile), constant_valuation(background)
    )
    assert result.ok, result.detail


def test_emitted_and_reparsed_axioms_are_recognised():
    """The kernel recognises the schemas on the fresh path (the emitted
    objects themselves) and on the disk tier (the axioms parsed back from
    the emitted text, which carry no comment)."""
    from repro.boogie import parse_boogie_program, pretty_boogie_program
    from repro.harness import full_corpus
    from repro.pipeline import run_pipeline

    schemas = [axiom.expr for axiom in BACKGROUND_AXIOMS]
    for files in full_corpus().values():
        program = run_pipeline(files[0].source, upto="translate").translation.boogie_program
        assert program.axioms == BACKGROUND_AXIOMS
        parsed = parse_boogie_program(pretty_boogie_program(program))
        assert [axiom.expr for axiom in parsed.axioms] == schemas
