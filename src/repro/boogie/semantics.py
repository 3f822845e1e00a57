"""Small-step operational semantics for the Boogie subset (Sec. 2.2).

Trust: **trusted** — the executable target semantics; the simulation
judgements quantify over its steps.

Executions are sequences of steps between program points (cursors) with
three outcomes for finite executions: failure ``BFailure`` (a violated
``assert``), magic ``BMagic`` (a violated ``assume``), and normal
``BNormal(state)``.  Expression evaluation is *total* (given an
interpretation for the uninterpreted functions) — the key contrast with
Viper's partial evaluation.

Quantifiers are evaluated over the finite carrier samples of the ambient
:class:`~repro.boogie.interp.Interpretation`; type quantifiers range over
its ``type_universe``.  This makes the semantics executable, which the
certification test-suite uses to validate simulation lemmas differentially.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Dict, Mapping, Optional, Tuple, Union

from ..choice import ChoiceOracle, DefaultOracle
from .ast import (
    Assign,
    Assume,
    BAssert,
    BBinOp,
    BBinOpKind,
    BBoolLit,
    BExpr,
    BIntLit,
    BoogieProgram,
    BRealLit,
    BType,
    BUnOp,
    BUnOpKind,
    BVar,
    CondB,
    Exists,
    Forall,
    FuncApp,
    Havoc,
    MapSelect,
    MapStore,
    Procedure,
    SimpleCmd,
    subst_type,
)
from .cursor import Cursor
from .interp import Interpretation, InterpretationError
from .state import BoogieState
from .values import (
    BValue,
    BVBool,
    BVInt,
    BVReal,
    FrozenMap,
    UValue,
    as_b_bool,
    as_b_int,
    as_b_real,
)


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BFailure:
    """Outcome F: a failed assert, optionally carrying diagnostics."""

    reason: str = ""

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BFailure)

    def __hash__(self) -> int:
        return hash("BFailure")


@dataclass(frozen=True)
class BMagic:
    """Outcome M: execution stopped at a violated assume."""


@dataclass(frozen=True)
class BNormal:
    """Outcome N(σ_b)."""

    state: BoogieState


BOutcome = Union[BFailure, BMagic, BNormal]


@dataclass
class BoogieContext:
    """The Boogie context Γ_b: declarations plus an interpretation.

    ``havoc_hook``, when set, replaces the carrier sample as the candidate
    set for ``havoc`` commands; it receives ``(name, type, state, ctx)`` and
    returns the candidates.  The differential-testing oracle uses it to
    offer *state-derived* heap candidates (all idOnPositive-compatible
    variants of the current heap), which keeps exhaustive path enumeration
    tractable while covering every havoc target the Viper semantics can
    produce.
    """

    program: BoogieProgram
    interp: Interpretation
    var_types: Dict[str, BType]
    havoc_hook: Optional[object] = None

    def with_locals(self, local_types: Dict[str, BType]) -> "BoogieContext":
        merged = dict(self.var_types)
        merged.update(local_types)
        return BoogieContext(self.program, self.interp, merged, self.havoc_hook)

    def havoc_candidates(self, name: str, state: "BoogieState"):
        typ = self.var_types[name]
        if self.havoc_hook is not None:
            candidates = self.havoc_hook(name, typ, state, self)
            if candidates is not None:
                return tuple(candidates)
        return tuple(self.interp.carrier_of(typ))


# ---------------------------------------------------------------------------
# Expression evaluation (total): compile once, then run
# ---------------------------------------------------------------------------

#: A compiled expression: a closure from a variable store to the value.
Compiled = Callable[[Mapping[str, BValue]], BValue]

_TRUE, _FALSE = BVBool(True), BVBool(False)
_LITERALS = {BIntLit: BVInt, BRealLit: BVReal, BBoolLit: BVBool}


def eval_bexpr(expr: BExpr, state: BoogieState, ctx: BoogieContext) -> BValue:
    """Evaluate a Boogie expression; total on well-typed input."""
    return compile_bexpr(expr, ctx)(state.store)


def compile_bexpr(expr: BExpr, ctx: BoogieContext) -> Compiled:
    """Compile ``expr`` under ``ctx`` to nested closures over a store.

    Compiling evaluates nothing and raises nothing: an unbound variable,
    a missing function or carrier, or an ill-typed operand raises when,
    and only when, evaluation reaches it.  Each type instance of a
    quantifier body is compiled once; carriers are sampled once per
    quantifier evaluation (docs/TRUSTED_BASE.md argues why this computes
    the same function as walking the tree).
    """
    kind = type(expr)
    if kind in _LITERALS:
        value = _LITERALS[kind](expr.value)
        return lambda env: value
    if kind is BVar:  # an unbound variable raises KeyError
        return operator.itemgetter(expr.name)
    if kind is BUnOp:
        operand = compile_bexpr(expr.operand, ctx)
        if expr.op is BUnOpKind.NOT:
            return lambda env: _FALSE if as_b_bool(operand(env)) else _TRUE
        return lambda env: _negate(operand(env))
    if kind is BBinOp:
        left, right = compile_bexpr(expr.left, ctx), compile_bexpr(expr.right, ctx)
        return _compile_binop(expr.op, left, right)
    if kind is CondB:
        cond = compile_bexpr(expr.cond, ctx)
        then, otherwise = compile_bexpr(expr.then, ctx), compile_bexpr(expr.otherwise, ctx)
        return lambda env: (then if as_b_bool(cond(env)) else otherwise)(env)
    if kind is FuncApp:
        return _compile_app(expr, ctx)
    if kind is MapSelect or kind is MapStore:
        return _compile_map(expr, ctx)
    if kind is Forall or kind is Exists:
        return _compile_quant(expr, ctx)

    def unknown(env):
        raise TypeError(f"unknown Boogie expression {expr!r}")

    return unknown


def _negate(value: BValue) -> BValue:
    return BVInt(-value.value) if isinstance(value, BVInt) else BVReal(-as_b_real(value))


def _compile_binop(op: BBinOpKind, left: Compiled, right: Compiled) -> Compiled:
    # Boogie's logical operators are short-circuit in evaluation order, which
    # matters only for efficiency here — evaluation is total.
    if op is BBinOpKind.AND:
        return lambda env: _TRUE if as_b_bool(left(env)) and as_b_bool(right(env)) else _FALSE
    if op is BBinOpKind.OR:
        return lambda env: _TRUE if as_b_bool(left(env)) or as_b_bool(right(env)) else _FALSE
    if op is BBinOpKind.IMPLIES:
        return lambda env: _FALSE if as_b_bool(left(env)) and not as_b_bool(right(env)) else _TRUE
    if op is BBinOpKind.IFF:
        return lambda env: _TRUE if as_b_bool(left(env)) == as_b_bool(right(env)) else _FALSE
    if op is BBinOpKind.EQ:
        return lambda env: _TRUE if _b_equal(left(env), right(env)) else _FALSE
    if op is BBinOpKind.NE:
        return lambda env: _FALSE if _b_equal(left(env), right(env)) else _TRUE
    apply = _STRICT_OPS[op]  # both operands, left first
    return lambda env: apply(left(env), right(env))


def _comparison(holds):
    return lambda left, right: _TRUE if holds(_b_num(left), _b_num(right)) else _FALSE


def _arithmetic(combine):
    def apply(left: BValue, right: BValue) -> BValue:
        if isinstance(left, BVInt) and isinstance(right, BVInt):
            return BVInt(combine(left.value, right.value))
        return BVReal(Fraction(combine(_b_num(left), _b_num(right))))

    return apply


def _b_div(left: BValue, right: BValue) -> BValue:
    divisor, dividend = as_b_int(right), as_b_int(left)
    # SMT-style total division: ``x div 0`` and ``x mod 0`` are unspecified, fixed.
    return BVInt(_trunc_div(dividend, divisor) if divisor else 0)


def _b_mod(left: BValue, right: BValue) -> BValue:
    divisor, dividend = as_b_int(right), as_b_int(left)
    return BVInt(dividend - divisor * _trunc_div(dividend, divisor) if divisor else dividend)


def _b_real_div(left: BValue, right: BValue) -> BValue:
    denom = as_b_real(right)
    return BVReal(as_b_real(left) / denom if denom else Fraction(0))


_STRICT_OPS = {
    BBinOpKind.LT: _comparison(operator.lt),
    BBinOpKind.LE: _comparison(operator.le),
    BBinOpKind.GT: _comparison(operator.gt),
    BBinOpKind.GE: _comparison(operator.ge),
    BBinOpKind.ADD: _arithmetic(operator.add),
    BBinOpKind.SUB: _arithmetic(operator.sub),
    BBinOpKind.MUL: _arithmetic(operator.mul),
    BBinOpKind.DIV: _b_div,
    BBinOpKind.MOD: _b_mod,
    BBinOpKind.REAL_DIV: _b_real_div,
}


def _b_equal(left: BValue, right: BValue) -> bool:
    if type(left) is type(right):
        return left == right
    both_numeric = isinstance(left, (BVInt, BVReal)) and isinstance(right, (BVInt, BVReal))
    return _b_num(left) == _b_num(right) if both_numeric else left == right


def _b_num(value: BValue) -> Union[int, Fraction]:
    """A numeric value's number; ints and Fractions compare exactly."""
    if isinstance(value, (BVInt, BVReal)):
        return value.value
    raise TypeError(f"expected a numeric Boogie value, got {value!r}")


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _compile_args(exprs: Tuple[BExpr, ...], ctx: BoogieContext):
    """One closure returning the tuple of the arguments' values."""
    if len(exprs) > 1 and all(type(expr) is BVar for expr in exprs):
        return operator.itemgetter(*(expr.name for expr in exprs))
    parts = tuple(compile_bexpr(expr, ctx) for expr in exprs)
    if len(parts) == 3:  # the heap and mask reads
        a, b, c = parts
        return lambda env: (a(env), b(env), c(env))
    if len(parts) == 4:  # the heap and mask updates
        a, b, c, d = parts
        return lambda env: (a(env), b(env), c(env), d(env))
    return lambda env: tuple([part(env) for part in parts])


def _compile_app(expr: FuncApp, ctx: BoogieContext) -> Compiled:
    name, type_args = expr.name, expr.type_args
    args, interp = _compile_args(expr.args, ctx), ctx.interp
    impl = interp.functions.get(name)
    if impl is None:  # Interpretation.apply raises, after the arguments ran
        return lambda env: interp.apply(name, type_args, args(env))
    return lambda env: impl(type_args, args(env))


def _compile_map(expr: Union[MapSelect, MapStore], ctx: BoogieContext) -> Compiled:
    target, indices = compile_bexpr(expr.map, ctx), _compile_args(expr.indices, ctx)
    if isinstance(expr, MapStore):
        value = compile_bexpr(expr.value, ctx)

        def store(env):
            map_value, key, stored = target(env), indices(env), value(env)
            return UValue("__map__", _map_payload(map_value).set(key, stored))

        return store

    def select(env):
        map_value, key = target(env), indices(env)
        payload = _map_payload(map_value)
        if key not in payload:
            raise InterpretationError(
                "select on unstored key of a sugar-level map; encode the "
                "map with read/update functions instead"
            )
        return payload.get(key)

    return select


def _map_payload(value: BValue) -> FrozenMap:
    if isinstance(value, UValue) and isinstance(value.payload, FrozenMap):
        return value.payload
    raise TypeError(f"expected a map value, got {value!r}")


def _compile_quant(expr: Union[Forall, Exists], ctx: BoogieContext) -> Compiled:
    """Quantify over the sampled carriers and the type universe: ``forall``
    holds iff every type instance holds at every combination of carrier
    values, ``exists`` iff one does; combinations are tried in the order
    of a depth-first walk over the bound variables."""
    want_all = isinstance(expr, Forall)
    names = tuple(name for name, _ in expr.bound)
    instances = [
        (
            tuple(subst_type(typ, type_map) for _, typ in expr.bound),
            compile_bexpr(substitute_type_args(expr.body, type_map), ctx),
        )
        for type_map in _type_assignments(expr.type_vars, ctx)
    ]
    carrier_of = ctx.interp.carrier_of

    def quantifier(env):
        scope = dict(env)
        for types, body in instances:
            carriers = []
            for typ in types:
                carriers.append(tuple(carrier_of(typ)))
                if not carriers[-1]:
                    break  # an empty domain: later carriers are never sampled
            for values in product(*carriers):
                scope.update(zip(names, values))
                if as_b_bool(body(scope)) != want_all:
                    return _FALSE if want_all else _TRUE
        return _TRUE if want_all else _FALSE

    return quantifier


def _type_assignments(type_vars: Tuple[str, ...], ctx: BoogieContext):
    assignments = [{}]
    for tvar in type_vars:
        assignments = [
            {**assignment, tvar: typ}
            for assignment in assignments
            for typ in ctx.interp.type_universe
        ]
    return assignments


def substitute_type_args(expr: BExpr, type_map: dict) -> BExpr:
    """Substitute type variables occurring in ``type_args`` positions."""
    if not type_map:
        return expr
    if isinstance(expr, FuncApp):
        return FuncApp(
            expr.name,
            tuple(subst_type(t, type_map) for t in expr.type_args),
            tuple(substitute_type_args(a, type_map) for a in expr.args),
        )
    if isinstance(expr, BBinOp):
        return BBinOp(
            expr.op,
            substitute_type_args(expr.left, type_map),
            substitute_type_args(expr.right, type_map),
        )
    if isinstance(expr, BUnOp):
        return BUnOp(expr.op, substitute_type_args(expr.operand, type_map))
    if isinstance(expr, CondB):
        return CondB(
            substitute_type_args(expr.cond, type_map),
            substitute_type_args(expr.then, type_map),
            substitute_type_args(expr.otherwise, type_map),
        )
    if isinstance(expr, MapSelect):
        return MapSelect(
            substitute_type_args(expr.map, type_map),
            tuple(subst_type(t, type_map) for t in expr.type_args),
            tuple(substitute_type_args(i, type_map) for i in expr.indices),
        )
    if isinstance(expr, MapStore):
        return MapStore(
            substitute_type_args(expr.map, type_map),
            tuple(subst_type(t, type_map) for t in expr.type_args),
            tuple(substitute_type_args(i, type_map) for i in expr.indices),
            substitute_type_args(expr.value, type_map),
        )
    if isinstance(expr, (Forall, Exists)):
        inner = {k: v for k, v in type_map.items() if k not in expr.type_vars}
        ctor = Forall if isinstance(expr, Forall) else Exists
        return ctor(
            expr.type_vars,
            tuple((name, subst_type(typ, inner)) for name, typ in expr.bound),
            substitute_type_args(expr.body, inner),
        )
    return expr


# ---------------------------------------------------------------------------
# Small-step execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepNormal:
    """A single successful step to a new program point and state."""

    cursor: Cursor
    state: BoogieState


StepResult = Union[StepNormal, BFailure, BMagic]


def step(
    cursor: Cursor, state: BoogieState, ctx: BoogieContext, oracle: ChoiceOracle
) -> StepResult:
    """One small step from a (non-final) program point."""
    if cursor.is_done:
        raise ValueError("cannot step a finished execution")
    if cursor.cmds:
        cmd = cursor.current_cmd
        result = exec_simple_cmd(cmd, state, ctx, oracle)
        if isinstance(result, (BFailure, BMagic)):
            return result
        return StepNormal(cursor.after_cmd(), result)
    assert cursor.ifopt is not None
    branch_if = cursor.ifopt
    if branch_if.cond is None:
        take_then = oracle.choose((True, False), "if(*)")
    else:
        take_then = as_b_bool(eval_bexpr(branch_if.cond, state, ctx))
    return StepNormal(cursor.enter_branch(take_then), state)


def exec_simple_cmd(
    cmd: SimpleCmd, state: BoogieState, ctx: BoogieContext, oracle: ChoiceOracle
) -> Union[BoogieState, BFailure, BMagic]:
    """Execute one simple command (assume / assert / assign / havoc)."""
    if isinstance(cmd, Assume):
        if as_b_bool(eval_bexpr(cmd.expr, state, ctx)):
            return state
        return BMagic()
    if isinstance(cmd, BAssert):
        if as_b_bool(eval_bexpr(cmd.expr, state, ctx)):
            return state
        return BFailure(f"assert failed: {cmd.expr!r}")
    if isinstance(cmd, Assign):
        return state.set(cmd.target, eval_bexpr(cmd.rhs, state, ctx))
    if isinstance(cmd, Havoc):
        candidates = ctx.havoc_candidates(cmd.target, state)
        value = oracle.choose(candidates, f"havoc {cmd.target}")
        return state.set(cmd.target, value)
    raise TypeError(f"unknown simple command {cmd!r}")


def run_from(
    cursor: Cursor,
    state: BoogieState,
    ctx: BoogieContext,
    oracle: Optional[ChoiceOracle] = None,
    max_steps: int = 1_000_000,
) -> BOutcome:
    """Run to completion from a program point (→*_b in the paper)."""
    if oracle is None:
        oracle = DefaultOracle()
    steps = 0
    while not cursor.is_done:
        result = step(cursor, state, ctx, oracle)
        if isinstance(result, (BFailure, BMagic)):
            return result
        cursor, state = result.cursor, result.state
        steps += 1
        if steps > max_steps:
            raise RuntimeError("Boogie execution exceeded the step budget")
    return BNormal(state)


def procedure_context(
    program: BoogieProgram, proc: Procedure, interp: Interpretation
) -> BoogieContext:
    """Γ_b for a procedure: globals, constants, and the procedure's locals."""
    var_types = program.global_types()
    var_types.update(dict(proc.locals))
    return BoogieContext(program, interp, var_types)


def run_procedure(
    program: BoogieProgram,
    proc: Procedure,
    interp: Interpretation,
    init_state: BoogieState,
    oracle: Optional[ChoiceOracle] = None,
) -> BOutcome:
    """Run a procedure body from its initial program point."""
    ctx = procedure_context(program, proc, interp)
    return run_from(Cursor.from_stmt(proc.body), init_state, ctx, oracle)
