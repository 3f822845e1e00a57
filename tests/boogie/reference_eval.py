"""The tree-walking Boogie evaluator, kept as a reference oracle.

``repro.boogie.semantics`` used to evaluate expressions by walking the
tree on every call; it now compiles each expression to closures once and
runs those (``compile_bexpr``).  This module is the walker it replaced,
unchanged apart from its imports, so ``test_compiled_eval.py`` can check
that the compiled evaluator computes the same function: the same value,
or the same exception class, on every input.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple, Union

from repro.boogie.ast import (
    BBinOp,
    BBinOpKind,
    BBoolLit,
    BExpr,
    BIntLit,
    BRealLit,
    BUnOp,
    BUnOpKind,
    BVar,
    CondB,
    Exists,
    Forall,
    FuncApp,
    MapSelect,
    MapStore,
    subst_type,
)
from repro.boogie.interp import InterpretationError
from repro.boogie.semantics import BoogieContext, substitute_type_args
from repro.boogie.state import BoogieState
from repro.boogie.values import (
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


def eval_bexpr(expr: BExpr, state: BoogieState, ctx: BoogieContext) -> BValue:
    """Evaluate a Boogie expression; total on well-typed input."""
    if isinstance(expr, BVar):
        return state.lookup(expr.name)
    if isinstance(expr, BIntLit):
        return BVInt(expr.value)
    if isinstance(expr, BRealLit):
        return BVReal(expr.value)
    if isinstance(expr, BBoolLit):
        return BVBool(expr.value)
    if isinstance(expr, BUnOp):
        operand = eval_bexpr(expr.operand, state, ctx)
        if expr.op is BUnOpKind.NOT:
            return BVBool(not as_b_bool(operand))
        if isinstance(operand, BVInt):
            return BVInt(-operand.value)
        return BVReal(-as_b_real(operand))
    if isinstance(expr, BBinOp):
        return _eval_binop(expr, state, ctx)
    if isinstance(expr, CondB):
        cond = eval_bexpr(expr.cond, state, ctx)
        branch = expr.then if as_b_bool(cond) else expr.otherwise
        return eval_bexpr(branch, state, ctx)
    if isinstance(expr, FuncApp):
        args = tuple(eval_bexpr(a, state, ctx) for a in expr.args)
        return ctx.interp.apply(expr.name, expr.type_args, args)
    if isinstance(expr, MapSelect):
        map_value = eval_bexpr(expr.map, state, ctx)
        key = tuple(eval_bexpr(i, state, ctx) for i in expr.indices)
        payload = _map_payload(map_value)
        if key not in payload:
            raise InterpretationError(
                "select on unstored key of a sugar-level map; encode the "
                "map with read/update functions instead"
            )
        return payload.get(key)
    if isinstance(expr, MapStore):
        map_value = eval_bexpr(expr.map, state, ctx)
        key = tuple(eval_bexpr(i, state, ctx) for i in expr.indices)
        value = eval_bexpr(expr.value, state, ctx)
        payload = _map_payload(map_value)
        return UValue("__map__", payload.set(key, value))
    if isinstance(expr, Forall):
        return BVBool(_eval_quant(expr, state, ctx, want_all=True))
    if isinstance(expr, Exists):
        return BVBool(_eval_quant(expr, state, ctx, want_all=False))
    raise TypeError(f"unknown Boogie expression {expr!r}")


def _map_payload(value: BValue) -> FrozenMap:
    if isinstance(value, UValue) and isinstance(value.payload, FrozenMap):
        return value.payload
    raise TypeError(f"expected a map value, got {value!r}")


def _eval_binop(expr: BBinOp, state: BoogieState, ctx: BoogieContext) -> BValue:
    op = expr.op
    # Boogie's logical operators are short-circuit in evaluation order, which
    # matters only for efficiency here — evaluation is total.
    if op is BBinOpKind.AND:
        left = as_b_bool(eval_bexpr(expr.left, state, ctx))
        return BVBool(left and as_b_bool(eval_bexpr(expr.right, state, ctx)))
    if op is BBinOpKind.OR:
        left = as_b_bool(eval_bexpr(expr.left, state, ctx))
        return BVBool(left or as_b_bool(eval_bexpr(expr.right, state, ctx)))
    if op is BBinOpKind.IMPLIES:
        left = as_b_bool(eval_bexpr(expr.left, state, ctx))
        return BVBool((not left) or as_b_bool(eval_bexpr(expr.right, state, ctx)))
    if op is BBinOpKind.IFF:
        left = as_b_bool(eval_bexpr(expr.left, state, ctx))
        return BVBool(left == as_b_bool(eval_bexpr(expr.right, state, ctx)))
    left = eval_bexpr(expr.left, state, ctx)
    right = eval_bexpr(expr.right, state, ctx)
    if op is BBinOpKind.EQ:
        return BVBool(_b_equal(left, right))
    if op is BBinOpKind.NE:
        return BVBool(not _b_equal(left, right))
    if op in (BBinOpKind.LT, BBinOpKind.LE, BBinOpKind.GT, BBinOpKind.GE):
        lnum, rnum = _b_num(left), _b_num(right)
        if op is BBinOpKind.LT:
            return BVBool(lnum < rnum)
        if op is BBinOpKind.LE:
            return BVBool(lnum <= rnum)
        if op is BBinOpKind.GT:
            return BVBool(lnum > rnum)
        return BVBool(lnum >= rnum)
    if op is BBinOpKind.DIV:
        divisor = as_b_int(right)
        dividend = as_b_int(left)
        if divisor == 0:
            return BVInt(0)  # SMT-style total division: unspecified, fixed
        return BVInt(_trunc_div(dividend, divisor))
    if op is BBinOpKind.MOD:
        divisor = as_b_int(right)
        dividend = as_b_int(left)
        if divisor == 0:
            return BVInt(dividend)
        return BVInt(dividend - divisor * _trunc_div(dividend, divisor))
    if op is BBinOpKind.REAL_DIV:
        denom = as_b_real(right)
        if denom == 0:
            return BVReal(Fraction(0))
        return BVReal(as_b_real(left) / denom)
    if isinstance(left, BVInt) and isinstance(right, BVInt):
        if op is BBinOpKind.ADD:
            return BVInt(left.value + right.value)
        if op is BBinOpKind.SUB:
            return BVInt(left.value - right.value)
        if op is BBinOpKind.MUL:
            return BVInt(left.value * right.value)
    lnum, rnum = _b_num(left), _b_num(right)
    if op is BBinOpKind.ADD:
        return BVReal(lnum + rnum)
    if op is BBinOpKind.SUB:
        return BVReal(lnum - rnum)
    if op is BBinOpKind.MUL:
        return BVReal(lnum * rnum)
    raise TypeError(f"unknown operator {op}")


def _b_equal(left: BValue, right: BValue) -> bool:
    both_numeric = isinstance(left, (BVInt, BVReal)) and isinstance(right, (BVInt, BVReal))
    if both_numeric:
        return _b_num(left) == _b_num(right)
    return left == right


def _b_num(value: BValue) -> Fraction:
    if isinstance(value, BVInt):
        return Fraction(value.value)
    if isinstance(value, BVReal):
        return value.value
    raise TypeError(f"expected a numeric Boogie value, got {value!r}")


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _eval_quant(
    expr: Union[Forall, Exists], state: BoogieState, ctx: BoogieContext, want_all: bool
) -> bool:
    """Evaluate a quantifier over sampled carriers (and the type universe)."""
    type_assignments = _type_assignments(expr.type_vars, ctx)
    for type_map in type_assignments:
        bound = [
            (name, subst_type(typ, type_map)) for name, typ in expr.bound
        ]
        body = substitute_type_args(expr.body, type_map)
        if not _eval_value_quant(bound, body, state, ctx, want_all):
            if want_all:
                return False
        else:
            if not want_all:
                return True
    return want_all


def _type_assignments(type_vars: Tuple[str, ...], ctx: BoogieContext):
    if not type_vars:
        return [{}]
    assignments = [{}]
    for tvar in type_vars:
        assignments = [
            {**assignment, tvar: typ}
            for assignment in assignments
            for typ in ctx.interp.type_universe
        ]
    return assignments


def _eval_value_quant(bound, body, state, ctx, want_all: bool) -> bool:
    def recurse(index: int, current: BoogieState) -> bool:
        if index == len(bound):
            return as_b_bool(eval_bexpr(body, current, ctx))
        name, typ = bound[index]
        for value in ctx.interp.carrier_of(typ):
            result = recurse(index + 1, current.set(name, value))
            if want_all and not result:
                return False
            if not want_all and result:
                return True
        return want_all

    return recurse(0, state)
