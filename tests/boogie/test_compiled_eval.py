"""Differential tests: the compiled evaluator against the tree walker.

``repro.boogie.semantics.eval_bexpr`` compiles an expression to closures
and runs them; ``tests/boogie/reference_eval.py`` is the tree-walking
evaluator it replaced.  On every input below the two must return the same
value or raise the same exception class:

* every corpus program's background axioms under that program's standard
  interpretation;
* seeded perturbations of each background axiom
  (:func:`repro.fuzz.mutators.axiom_perturbations`), where the bounded
  axiom check must also fail exactly when the reference finds the
  perturbed axiom false;
* seeded well-typed expressions mixing arithmetic, ``if-then-else``, map
  select/store, nested ``forall``/``exists`` and type quantifiers;
* a few hand-written cases where evaluation must raise only when it
  reaches the offending subterm.

It also tests the symmetry argument behind the background lemma
(``tests/certification/test_background_lemma.py``): on seeded field
profiles, the full carriers and the reduced ones give every perturbation
the same verdict.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from repro.boogie import BoogieProgram, check_axioms_bounded
from repro.boogie.ast import (
    AxiomDecl,
    BBinOp,
    BBinOpKind,
    BBoolLit,
    BIntLit,
    BRealLit,
    BUnOp,
    BUnOpKind,
    BVar,
    CondB,
    Exists,
    Forall,
    FuncApp,
    INT,
    BOOL,
    MapSelect,
    MapStore,
    MapType,
    REAL,
    TCon,
    TVar,
)
from repro.boogie.interp import Interpretation, InterpretationError, fixed_carrier
from repro.boogie.semantics import BoogieContext, eval_bexpr
from repro.boogie.state import BoogieState
from repro.boogie.values import BVBool, BVInt, BVReal, FrozenMap, UValue
from repro.frontend.background import (
    BACKGROUND_AXIOMS,
    build_background,
    constant_valuation,
    standard_interpretation,
)
from repro.fuzz.mutators import axiom_perturbations
from repro.harness import full_corpus
from repro.pipeline import run_pipeline
from repro.viper.ast import Type
from tests.boogie import reference_eval


def _outcome(evaluate, expr, state, ctx):
    try:
        return "value", evaluate(expr, state, ctx)
    except Exception as error:  # noqa: BLE001 - the class is the outcome
        return "raises", type(error)


def _assert_same(expr, state, ctx, note=""):
    compiled = _outcome(eval_bexpr, expr, state, ctx)
    walked = _outcome(reference_eval.eval_bexpr, expr, state, ctx)
    assert compiled == walked, f"{note}: compiled {compiled}, reference {walked}: {expr!r}"
    return walked


def _axiom_setting(program, interp, consts):
    ctx = BoogieContext(program=program, interp=interp, var_types=program.global_types())
    return BoogieState(dict(consts)), ctx


# ---------------------------------------------------------------------------
# The corpus's axioms
# ---------------------------------------------------------------------------


def _corpus_backgrounds():
    """One translation per distinct (axioms, field types) of the corpus:
    programs that share both run the same axiom check."""
    distinct = {}
    for suite, files in full_corpus().items():
        for corpus_file in files:
            translation = run_pipeline(corpus_file.source, upto="translate").translation
            key = (
                repr(translation.boogie_program.axioms),
                repr(sorted(translation.type_info.field_types.items())),
            )
            distinct.setdefault(key, (f"{suite}/{corpus_file.name}", translation))
    return list(distinct.values())


def test_corpus_axioms_evaluate_alike():
    backgrounds = _corpus_backgrounds()
    assert len(backgrounds) >= 3  # the corpus declares one to three fields
    for name, translation in backgrounds:
        program = translation.boogie_program
        state, ctx = _axiom_setting(
            program,
            standard_interpretation(translation.type_info.field_types),
            constant_valuation(translation.background),
        )
        for axiom in program.axioms:
            outcome = _assert_same(axiom.expr, state, ctx, f"{name}: {axiom.comment}")
            assert outcome == ("value", BVBool(True)), (name, axiom.comment)


# ---------------------------------------------------------------------------
# Perturbed background axioms
# ---------------------------------------------------------------------------

#: Three fields, one per carrier shape the heap sample distinguishes.
FIELDS = {"a": Type.INT, "b": Type.REF, "c": Type.BOOL}


def test_perturbed_axioms_evaluate_alike_and_decide_the_check():
    background = build_background(FIELDS)
    consts = constant_valuation(background)
    interp = standard_interpretation(FIELDS)
    rng = random.Random(15)
    kinds, verdicts = Counter(), Counter()
    for index, axiom in enumerate(background.axioms):
        for kind, perturbed in axiom_perturbations(axiom.expr, rng):
            axioms = list(background.axioms)
            axioms[index] = AxiomDecl(perturbed, comment=f"{kind} of {axiom.comment}")
            program = BoogieProgram(
                type_decls=background.type_decls,
                consts=background.consts,
                functions=background.functions,
                axioms=tuple(axioms),
            )
            state, ctx = _axiom_setting(program, interp, consts)
            outcome = _assert_same(perturbed, state, ctx, axioms[index].comment)
            holds = outcome == ("value", BVBool(True))
            result = check_axioms_bounded(program, interp, consts)
            assert result.ok == holds, (axioms[index].comment, result.detail)
            if not holds:
                assert result.failed_axiom is axioms[index]
            kinds[kind.split("-")[0]] += 1
            verdicts[holds] += 1
            # A renamed bound variable keeps the axiom true.
            assert holds or kind != "rename-bound", axioms[index].comment
    assert {"negate", "swap", "change", "drop", "rename"} <= set(kinds), kinds
    assert kinds["negate"] == kinds["rename"] == len(background.axioms)
    # Both verdicts occur: some perturbations are caught, some are benign.
    assert verdicts[True] and verdicts[False], verdicts


def _seeded_profile(rng):
    """1 to 8 fields of each type, under shuffled names."""
    profile = {}
    for typ in Type:
        for _ in range(rng.randint(1, 8)):
            profile[f"{rng.choice('pqrstuvw')}{len(profile)}"] = typ
    return profile


def _reduced(profile):
    """The two smallest names plus two more fields of each type."""
    names = sorted(profile)
    kept = names[:2]
    for typ in Type:
        kept += [name for name in names[2:] if profile[name] is typ][:2]
    return {name: profile[name] for name in kept}


@pytest.mark.parametrize("seed", [7, 14])
def test_reduced_carriers_decide_every_perturbation_as_the_full_ones(seed):
    """The symmetry argument of docs/TRUSTED_BASE.md ("The background
    lemma"), tested: dropping all fields but the two smallest and two more
    of each type changes no verdict of a ``forall`` over a quantifier-free
    body with at most two field variables."""
    rng = random.Random(seed)
    profile = _seeded_profile(rng)
    reduced = _reduced(profile)
    assert len(reduced) < len(profile)
    settings = [
        _axiom_setting(
            BoogieProgram(), standard_interpretation(fields),
            constant_valuation(build_background(fields)),
        )
        for fields in (profile, reduced)
    ]
    cases = [
        (f"{kind} of {axiom.comment}", perturbed)
        for axiom in BACKGROUND_AXIOMS
        for kind, perturbed in axiom_perturbations(axiom.expr, rng)
    ]
    # Only two distinct fields of one type refute this: why two per type.
    field_t = TCon("Field", (TVar("T"),))
    same = BBinOp(BBinOpKind.EQ, BVar("f"), BVar("f2"))
    cases.append(("one field per type", Forall(("T",), (("f", field_t), ("f2", field_t)), same)))
    verdicts = Counter()
    for note, expr in cases:
        full, small = (eval_bexpr(expr, state, ctx) for state, ctx in settings)
        assert full == small, (note, sorted(profile))
        verdicts[full] += 1
    assert full == BVBool(False)
    assert verdicts[BVBool(True)] and verdicts[BVBool(False)], verdicts


# ---------------------------------------------------------------------------
# Seeded well-typed expressions
# ---------------------------------------------------------------------------

U = TCon("U")
MAP = MapType((), (INT,), INT)
_U_VALUES = (UValue("U", 0), UValue("U", 1))
_DEFAULTS = {INT: BVInt(0), BOOL: BVBool(False), REAL: BVReal(Fraction(0)), U: _U_VALUES[0]}

INTERP = Interpretation(
    carriers={"U": fixed_carrier(_U_VALUES)},
    functions={
        "inc": lambda targs, args: BVInt(args[0].value + 1),
        "half": lambda targs, args: BVReal(args[0].value / 2),
        "u2i": lambda targs, args: BVInt(args[0].payload),
        # Polymorphic at every T; default<T>() reads its type argument.
        "pick": lambda targs, args: args[0] if args[2].value else args[1],
        "same": lambda targs, args: BVBool(args[0] == args[1]),
        "default": lambda targs, args: _DEFAULTS[targs[0]],
    },
    type_universe=(INT, BOOL, REAL, U),
)
FREE = {"i": INT, "j": INT, "r": REAL, "p": BOOL, "u": U, "m": MAP}
STATE = BoogieState({
    "i": BVInt(1),
    "j": BVInt(-2),
    "r": BVReal(Fraction(1, 3)),
    "p": BVBool(True),
    "u": _U_VALUES[1],
    "m": UValue("__map__", FrozenMap({(BVInt(0),): BVInt(3), (BVInt(1),): BVInt(-2)})),
})
CTX = BoogieContext(BoogieProgram(), INTERP, dict(FREE))

_ARITH = (BBinOpKind.ADD, BBinOpKind.SUB, BBinOpKind.MUL)
_CMP = (BBinOpKind.LT, BBinOpKind.LE, BBinOpKind.GT, BBinOpKind.GE)
_LOGIC = (BBinOpKind.AND, BBinOpKind.OR, BBinOpKind.IMPLIES, BBinOpKind.IFF)


class _Generator:
    """Random well-typed expressions over :data:`FREE` and bound names."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.quantifiers = 0

    def pick(self, options):
        return options[self.rng.randrange(len(options))]

    def var(self, typ, scope):
        names = [name for name, bound in scope.items() if bound == typ]
        return BVar(self.pick(names)) if names else None

    def expr(self, typ, depth, scope):
        leaf = depth <= 0 or self.rng.random() < 0.2
        if typ == INT:
            return self.int_expr(depth, scope, leaf)
        if typ == REAL:
            return self.real_expr(depth, scope, leaf)
        if typ == BOOL:
            return self.bool_expr(depth, scope, leaf)
        if typ == MAP:
            if leaf or self.rng.random() < 0.4:
                return BVar("m")
            return MapStore(
                self.expr(MAP, depth - 1, scope), (),
                (self.expr(INT, depth - 1, scope),), self.expr(INT, depth - 1, scope),
            )
        variable = self.var(typ, scope)
        if typ == U:
            return variable or BVar("u")
        # A bound type variable: its variables, default<T>() or pick<T>(...).
        choice = self.rng.random()
        if leaf or choice < 0.5:
            return variable or FuncApp("default", (typ,), ())
        if choice < 0.75:
            return FuncApp("default", (typ,), ())
        return FuncApp("pick", (typ,), (
            self.expr(typ, depth - 1, scope), self.expr(typ, depth - 1, scope),
            self.expr(BOOL, depth - 1, scope),
        ))

    def int_expr(self, depth, scope, leaf):
        if leaf:
            literal = BIntLit(self.rng.randint(-2, 8))
            return (self.rng.random() < 0.5 and self.var(INT, scope)) or literal
        choice = self.rng.randrange(7)
        sub = lambda typ: self.expr(typ, depth - 1, scope)  # noqa: E731
        if choice == 0:
            return BBinOp(self.pick(_ARITH), sub(INT), sub(INT))
        if choice == 1:
            return BBinOp(self.pick((BBinOpKind.DIV, BBinOpKind.MOD)), sub(INT), sub(INT))
        if choice == 2:
            return CondB(sub(BOOL), sub(INT), sub(INT))
        if choice == 3:
            return MapSelect(sub(MAP), (), (sub(INT),))
        if choice == 4:
            return FuncApp("inc", (), (sub(INT),))
        if choice == 5:
            return FuncApp("u2i", (), (sub(U),))
        return BUnOp(BUnOpKind.NEG, sub(INT))

    def real_expr(self, depth, scope, leaf):
        if leaf:
            if self.rng.random() < 0.5:
                return self.var(REAL, scope) or BVar("r")
            return BRealLit(Fraction(self.rng.randint(-3, 3), self.rng.randint(1, 3)))
        choice = self.rng.randrange(5)
        sub = lambda typ: self.expr(typ, depth - 1, scope)  # noqa: E731
        if choice == 0:
            return BBinOp(self.pick(_ARITH), sub(REAL), sub(REAL))
        if choice == 1:
            return BBinOp(BBinOpKind.REAL_DIV, sub(REAL), sub(REAL))
        if choice == 2:
            return CondB(sub(BOOL), sub(REAL), sub(REAL))
        if choice == 3:
            return FuncApp("half", (), (sub(REAL),))
        return FuncApp("pick", (REAL,), (sub(REAL), sub(REAL), sub(BOOL)))

    def bool_expr(self, depth, scope, leaf):
        if leaf:
            literal = BBoolLit(self.rng.random() < 0.5)
            return (self.rng.random() < 0.5 and self.var(BOOL, scope)) or literal
        choice = self.rng.randrange(9)
        sub = lambda typ: self.expr(typ, depth - 1, scope)  # noqa: E731
        if choice == 0:
            typ = self.pick((INT, REAL))
            return BBinOp(self.pick(_CMP), sub(typ), sub(typ))
        if choice == 1:
            typ = self.pick((INT, REAL, BOOL, U, MAP))
            return BBinOp(self.pick((BBinOpKind.EQ, BBinOpKind.NE)), sub(typ), sub(typ))
        if choice in (2, 3):
            return BBinOp(self.pick(_LOGIC), sub(BOOL), sub(BOOL))
        if choice == 4:
            return BUnOp(BUnOpKind.NOT, sub(BOOL))
        if choice == 5:
            return CondB(sub(BOOL), sub(BOOL), sub(BOOL))
        if choice == 6:
            return FuncApp("same", (INT,), (sub(INT), sub(INT)))
        if self.quantifiers >= 3:
            return BBinOp(self.pick(_LOGIC), sub(BOOL), sub(BOOL))
        self.quantifiers += 1
        return self.quantifier(depth, scope, typed=choice == 8)

    def quantifier(self, depth, scope, typed):
        ctor = self.pick((Forall, Exists))
        if typed:
            # forall<T> x: T, y: T :: ... — the body is compiled per type.
            tvar = TVar("T")
            bound = (("x", tvar), ("y", tvar))
            inner = {**scope, "x": tvar, "y": tvar}
            if self.pick((True, False)):
                op = self.pick((BBinOpKind.EQ, BBinOpKind.NE))
                left, right = self.expr(tvar, depth - 1, inner), self.expr(tvar, depth - 1, inner)
                atom = BBinOp(op, left, right)
            else:
                atom = FuncApp("same", (tvar,), (self.expr(tvar, depth - 1, inner), BVar("y")))
            body = BBinOp(self.pick(_LOGIC), atom, self.expr(BOOL, depth - 1, inner))
            return ctor(("T",), bound, body)
        names = self.rng.sample(["x", "y", "i", "p"], self.rng.randint(1, 2))
        bound = tuple((name, self.pick((INT, BOOL, REAL, U))) for name in names)
        inner = {**scope, **dict(bound)}
        return ctor((), bound, self.expr(BOOL, depth - 1, inner))


def _kinds(expr, counts, quantified=False):
    """Count node kinds, type quantifiers, and quantifiers under quantifiers."""
    counts[type(expr).__name__] += 1
    is_quantifier = isinstance(expr, (Forall, Exists))
    if is_quantifier:
        counts["type-quantifier"] += bool(expr.type_vars)
        counts["nested-quantifier"] += quantified
    children = [getattr(expr, name, None) for name in (
        "left", "right", "operand", "body", "cond", "then", "otherwise", "map", "value",
    )]
    children += list(getattr(expr, "args", ())) + list(getattr(expr, "indices", ()))
    for child in children:
        if hasattr(child, "__dataclass_fields__"):
            _kinds(child, counts, quantified or is_quantifier)


def test_seeded_expressions_evaluate_alike():
    counts, outcomes = Counter(), Counter()
    for seed in range(300):
        generator = _Generator(seed)
        typ = (BOOL, BOOL, BOOL, INT, REAL)[seed % 5]
        expr = generator.expr(typ, 4, dict(FREE))
        _kinds(expr, counts)
        kind, result = _assert_same(expr, STATE, CTX, f"seed {seed}")
        outcomes[result if kind == "raises" or typ == BOOL else kind] += 1
    for needed in ("BBinOp", "CondB", "MapSelect", "MapStore", "Forall", "Exists",
                   "type-quantifier", "nested-quantifier", "FuncApp"):
        assert counts[needed] >= 10, (needed, counts)
    assert outcomes[BVBool(True)] and outcomes[BVBool(False)], outcomes
    # Well-typed: only a select on an unstored map key may raise.
    assert {key for key in outcomes if isinstance(key, type)} == {InterpretationError}


# ---------------------------------------------------------------------------
# Errors surface where, and only where, evaluation reaches them
# ---------------------------------------------------------------------------

_GHOST = FuncApp("ghost", (), (BIntLit(1),))
_EMPTY = Interpretation(carriers={"Empty": fixed_carrier(())}, functions=INTERP.functions)


@pytest.mark.parametrize("expr, interp, expected", [
    (BVar("nowhere"), INTERP, KeyError),
    (BBinOp(BBinOpKind.EQ, _GHOST, BIntLit(1)), INTERP, InterpretationError),
    (BBinOp(BBinOpKind.AND, BBoolLit(False), BBinOp(BBinOpKind.EQ, _GHOST, BIntLit(1))),
     INTERP, BVBool(False)),
    (CondB(BBoolLit(True), BIntLit(1), _GHOST), INTERP, BVInt(1)),
    (MapSelect(BVar("m"), (), (BIntLit(5),)), INTERP, InterpretationError),
    (Forall((), (("x", TCon("Mystery")),), BBoolLit(True)), INTERP, InterpretationError),
    # An empty carrier ends the domain before a missing one is sampled.
    (Forall((), (("e", TCon("Empty")), ("x", TCon("Mystery"))), BBoolLit(False)),
     _EMPTY, BVBool(True)),
    (Exists((), (("x", INT),), BBinOp(BBinOpKind.LT, BVar("x"), BVar("p"))), INTERP, TypeError),
])
def test_errors_are_raised_when_reached(expr, interp, expected):
    ctx = BoogieContext(BoogieProgram(), interp, dict(FREE))
    kind, result = _assert_same(expr, STATE, ctx)
    assert result == expected


def test_frozen_map_equality_is_map_equality():
    forward = FrozenMap({}).set("k1", 1).set("k2", 2)
    backward = FrozenMap({}).set("k2", 2).set("k1", 1)
    assert forward == backward and hash(forward) == hash(backward)
    assert forward.items() == (("k1", 1), ("k2", 2)) == backward.items()
    assert forward.get("k1") == 1 and "k2" in forward and "k3" not in forward
    assert FrozenMap({"k1": 1}) != forward and forward.set("k1", 1) == forward
