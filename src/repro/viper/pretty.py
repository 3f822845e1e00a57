"""Pretty-printer for the Viper subset.

Trust: **untrusted-but-checked** — rendering for messages and round-trip
tests; never consulted by a judgement.

``pretty_program(parse_program(text))`` round-trips modulo whitespace; the
test suite checks ``parse(pretty(ast)) == ast`` for generated ASTs, which is
the invariant the harness relies on when it counts source lines.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from .ast import (
    Acc,
    AExpr,
    AssertStmt,
    Assertion,
    BinOp,
    BinOpKind,
    BoolLit,
    CondAssert,
    CondExp,
    Expr,
    FieldAcc,
    FieldAssign,
    If,
    Implies,
    Inhale,
    IntLit,
    LocalAssign,
    MethodCall,
    MethodDecl,
    NullLit,
    PermLit,
    Program,
    SepConj,
    Seq,
    Skip,
    Stmt,
    UnOp,
    UnOpKind,
    Var,
    VarDecl,
    Exhale,
)

_PRECEDENCE = {
    BinOpKind.IMPLIES: 1,
    BinOpKind.OR: 2,
    BinOpKind.AND: 3,
    BinOpKind.EQ: 4,
    BinOpKind.NE: 4,
    BinOpKind.LT: 4,
    BinOpKind.LE: 4,
    BinOpKind.GT: 4,
    BinOpKind.GE: 4,
    BinOpKind.ADD: 5,
    BinOpKind.SUB: 5,
    BinOpKind.MUL: 6,
    BinOpKind.DIV: 6,
    BinOpKind.MOD: 6,
    BinOpKind.PERM_DIV: 6,
}


def pretty_expr(expr: Expr, parent_prec: int = 0) -> str:
    """Render an expression with minimal parentheses."""
    from .oldexprs import OldExpr

    if isinstance(expr, OldExpr):
        return f"old({pretty_expr(expr.expr)})"
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, NullLit):
        return "null"
    if isinstance(expr, PermLit):
        return _pretty_perm(expr.amount)
    if isinstance(expr, FieldAcc):
        return f"{pretty_expr(expr.receiver, 7)}.{expr.field}"
    if isinstance(expr, UnOp):
        op = "-" if expr.op is UnOpKind.NEG else "!"
        return f"{op}{pretty_expr(expr.operand, 7)}"
    if isinstance(expr, CondExp):
        text = (
            f"{pretty_expr(expr.cond, 1)} ? {pretty_expr(expr.then)} : "
            f"{pretty_expr(expr.otherwise)}"
        )
        return f"({text})" if parent_prec > 0 else text
    if isinstance(expr, BinOp):
        prec = _PRECEDENCE[expr.op]
        if expr.op is BinOpKind.IMPLIES:
            # ==> is right-associative: parenthesise a nested left operand.
            text = (
                f"{pretty_expr(expr.left, prec + 1)} {expr.op.value} "
                f"{pretty_expr(expr.right, prec)}"
            )
        else:
            text = (
                f"{pretty_expr(expr.left, prec)} {expr.op.value} "
                f"{pretty_expr(expr.right, prec + 1)}"
            )
        return f"({text})" if prec < parent_prec else text
    raise TypeError(f"unknown expression {expr!r}")


def _pretty_perm(amount: Fraction) -> str:
    if amount == 1:
        return "write"
    if amount == 0:
        return "none"
    return f"{amount.numerator}/{amount.denominator}"


def pretty_assertion(assertion: Assertion) -> str:
    """Render an assertion in Viper concrete syntax."""
    if isinstance(assertion, AExpr):
        return pretty_expr(assertion.expr, 4)
    if isinstance(assertion, Acc):
        receiver = pretty_expr(assertion.receiver, 7)
        return f"acc({receiver}.{assertion.field}, {pretty_expr(assertion.perm)})"
    if isinstance(assertion, SepConj):
        return f"{pretty_assertion(assertion.left)} && {pretty_assertion(assertion.right)}"
    if isinstance(assertion, Implies):
        return f"{pretty_expr(assertion.cond, 4)} ==> {pretty_assertion(assertion.body)}"
    if isinstance(assertion, CondAssert):
        return (
            f"{pretty_expr(assertion.cond, 4)} ? {pretty_assertion(assertion.then)}"
            f" : {pretty_assertion(assertion.otherwise)}"
        )
    raise TypeError(f"unknown assertion {assertion!r}")


def _stmt_lines(stmt: Stmt, indent: int) -> List[str]:
    pad = "  " * indent
    if isinstance(stmt, Skip):
        return []
    if isinstance(stmt, Seq):
        return _stmt_lines(stmt.first, indent) + _stmt_lines(stmt.second, indent)
    if isinstance(stmt, VarDecl):
        return [f"{pad}var {stmt.name}: {stmt.typ}"]
    if isinstance(stmt, LocalAssign):
        return [f"{pad}{stmt.target} := {pretty_expr(stmt.rhs)}"]
    if isinstance(stmt, FieldAssign):
        receiver = pretty_expr(stmt.receiver, 7)
        return [f"{pad}{receiver}.{stmt.field} := {pretty_expr(stmt.rhs)}"]
    if isinstance(stmt, MethodCall):
        call = f"{stmt.method}({', '.join(pretty_expr(a) for a in stmt.args)})"
        if stmt.targets:
            return [f"{pad}{', '.join(stmt.targets)} := {call}"]
        return [f"{pad}{call}"]
    if isinstance(stmt, Inhale):
        return [f"{pad}inhale {pretty_assertion(stmt.assertion)}"]
    if isinstance(stmt, Exhale):
        return [f"{pad}exhale {pretty_assertion(stmt.assertion)}"]
    if isinstance(stmt, AssertStmt):
        return [f"{pad}assert {pretty_assertion(stmt.assertion)}"]
    from .allocation import NewStmt
    from .loops import While

    if isinstance(stmt, While):
        lines = [
            f"{pad}while ({pretty_expr(stmt.cond)})",
            f"{pad}  invariant {pretty_assertion(stmt.invariant)}",
            f"{pad}{{",
        ]
        lines += _stmt_lines(stmt.body, indent + 1)
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, NewStmt):
        inner = "*" if stmt.all_fields else ", ".join(stmt.fields)
        return [f"{pad}{stmt.target} := new({inner})"]
    if isinstance(stmt, If):
        lines = [f"{pad}if ({pretty_expr(stmt.cond)}) {{"]
        lines += _stmt_lines(stmt.then, indent + 1)
        if isinstance(stmt.otherwise, Skip):
            lines.append(f"{pad}}}")
        else:
            lines.append(f"{pad}}} else {{")
            lines += _stmt_lines(stmt.otherwise, indent + 1)
            lines.append(f"{pad}}}")
        return lines
    raise TypeError(f"unknown statement {stmt!r}")


def pretty_stmt(stmt: Stmt, indent: int = 0) -> str:
    """Render a statement (one line per simple statement)."""
    return "\n".join(_stmt_lines(stmt, indent))


def pretty_method(method: MethodDecl) -> str:
    """Render a method declaration with its specification and body."""
    args = ", ".join(f"{name}: {typ}" for name, typ in method.args)
    lines = [f"method {method.name}({args})"]
    if method.returns:
        rets = ", ".join(f"{name}: {typ}" for name, typ in method.returns)
        lines[0] += f" returns ({rets})"
    lines.append(f"  requires {pretty_assertion(method.pre)}")
    lines.append(f"  ensures {pretty_assertion(method.post)}")
    if method.body is not None:
        lines.append("{")
        lines += _stmt_lines(method.body, 1)
        lines.append("}")
    return "\n".join(lines)


def pretty_program(program: Program) -> str:
    """Render a whole program; round-trips with ``parse_program``."""
    parts = [f"field {f.name}: {f.typ}" for f in program.fields]
    parts += [""] if program.fields else []
    parts += [pretty_method(m) + "\n" for m in program.methods]
    return "\n".join(parts)


def count_nonblank(lines: List[str]) -> int:
    """How many of ``lines`` hold something besides whitespace.

    A line is blank when it is empty or ``str.isspace`` (the characters
    ``str.strip`` removes); both are counted without a loop per line.
    """
    return len(lines) - lines.count("") - sum(map(str.isspace, lines))


def count_loc(text: str) -> int:
    """Count non-empty, non-comment-only lines (the paper's LoC metric)."""
    lines = text.splitlines()
    loc = count_nonblank(lines)
    if "//" in text:
        loc -= len([
            line for line in lines if "//" in line and line.lstrip().startswith("//")
        ])
    return loc
