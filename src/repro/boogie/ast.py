"""Abstract syntax of the Boogie subset (Fig. 1, bottom).

Trust: **trusted** — the kernel's definition of the target language's
syntax.

The subset comprises expressions (with polymorphic uninterpreted function
applications and value/type quantifiers), simple commands (``assume``,
``assert``, assignment, ``havoc``), statement *blocks* (a list of simple
commands followed by an optional if-statement), and top-level declarations
(type constructors, constants, global variables, functions, axioms, and
procedures).

A Boogie statement is a *list of blocks* — deliberately different from
Viper's tree-shaped sequential composition, because this AST mismatch is one
of the proof-generation challenges the paper addresses (Sec. 2.1, 4.3).

Polymorphic *map types* (``<T>[Ref, Field T]T``) are represented explicitly
(:class:`MapType`, :class:`MapSelect`, :class:`MapStore`) so that the
desugaring into uninterpreted types plus ``read``/``upd`` functions
(Sec. 4.4) can be implemented as an actual Boogie-to-Boogie pass.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Tuple, Union


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BInt:
    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class BReal:
    def __str__(self) -> str:
        return "real"


@dataclass(frozen=True)
class BBool:
    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class TVar:
    """A type variable bound by a function signature, axiom, or map type."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class TCon:
    """An applied (possibly nullary) uninterpreted type constructor."""

    name: str
    args: Tuple["BType", ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return f"({self.name} {' '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class MapType:
    """A (possibly impredicatively polymorphic) Boogie map type."""

    type_params: Tuple[str, ...]
    arg_types: Tuple["BType", ...]
    result: "BType"

    def __str__(self) -> str:
        params = f"<{','.join(self.type_params)}>" if self.type_params else ""
        args = ",".join(str(a) for a in self.arg_types)
        return f"{params}[{args}]{self.result}"


BType = Union[BInt, BReal, BBool, TVar, TCon, MapType]

INT = BInt()
REAL = BReal()
BOOL = BBool()


def subst_type(typ: BType, mapping: dict) -> BType:
    """Substitute type variables in a type."""
    if isinstance(typ, TVar):
        return mapping.get(typ.name, typ)
    if isinstance(typ, TCon):
        return TCon(typ.name, tuple(subst_type(a, mapping) for a in typ.args))
    if isinstance(typ, MapType):
        inner = {k: v for k, v in mapping.items() if k not in typ.type_params}
        return MapType(
            typ.type_params,
            tuple(subst_type(a, inner) for a in typ.arg_types),
            subst_type(typ.result, inner),
        )
    return typ


def type_free_vars(typ: BType) -> frozenset:
    if isinstance(typ, TVar):
        return frozenset({typ.name})
    if isinstance(typ, TCon):
        result: frozenset = frozenset()
        for arg in typ.args:
            result |= type_free_vars(arg)
        return result
    if isinstance(typ, MapType):
        result = type_free_vars(typ.result)
        for arg in typ.arg_types:
            result |= type_free_vars(arg)
        return result - frozenset(typ.type_params)
    return frozenset()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class BBinOpKind(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "div"
    MOD = "mod"
    REAL_DIV = "/"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "=="
    NE = "!="
    AND = "&&"
    OR = "||"
    IMPLIES = "==>"
    IFF = "<==>"

    def __str__(self) -> str:
        return self.value


class BUnOpKind(enum.Enum):
    NEG = "-"
    NOT = "!"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class BVar:
    name: str


@dataclass(frozen=True)
class BIntLit:
    value: int


@dataclass(frozen=True)
class BRealLit:
    value: Fraction


@dataclass(frozen=True)
class BBoolLit:
    value: bool


@dataclass(frozen=True)
class BBinOp:
    op: BBinOpKind
    left: "BExpr"
    right: "BExpr"


@dataclass(frozen=True)
class BUnOp:
    op: BUnOpKind
    operand: "BExpr"


@dataclass(frozen=True)
class FuncApp:
    """Application of a (possibly polymorphic) uninterpreted function."""

    name: str
    type_args: Tuple[BType, ...]
    args: Tuple["BExpr", ...]


@dataclass(frozen=True)
class MapSelect:
    """``map[indices]`` — sugar; the translation emits read functions."""

    map: "BExpr"
    type_args: Tuple[BType, ...]
    indices: Tuple["BExpr", ...]


@dataclass(frozen=True)
class MapStore:
    """``map[indices := value]`` — sugar eliminated by desugaring."""

    map: "BExpr"
    type_args: Tuple[BType, ...]
    indices: Tuple["BExpr", ...]
    value: "BExpr"


@dataclass(frozen=True)
class Forall:
    """A quantifier binding type variables and typed value variables."""

    type_vars: Tuple[str, ...]
    bound: Tuple[Tuple[str, BType], ...]
    body: "BExpr"


@dataclass(frozen=True)
class Exists:
    type_vars: Tuple[str, ...]
    bound: Tuple[Tuple[str, BType], ...]
    body: "BExpr"


@dataclass(frozen=True)
class CondB:
    """``if cond then e1 else e2`` expression."""

    cond: "BExpr"
    then: "BExpr"
    otherwise: "BExpr"


BExpr = Union[
    BVar, BIntLit, BRealLit, BBoolLit, BBinOp, BUnOp, FuncApp, MapSelect, MapStore,
    Forall, Exists, CondB,
]

TRUE = BBoolLit(True)
FALSE = BBoolLit(False)


def band(*exprs: BExpr) -> BExpr:
    """Conjunction of a list of expressions (TRUE when empty)."""
    useful = [e for e in exprs if e != TRUE]
    if not useful:
        return TRUE
    result = useful[0]
    for expr in useful[1:]:
        result = BBinOp(BBinOpKind.AND, result, expr)
    return result


def bimplies(lhs: BExpr, rhs: BExpr) -> BExpr:
    if lhs == TRUE:
        return rhs
    return BBinOp(BBinOpKind.IMPLIES, lhs, rhs)


def beq(lhs: BExpr, rhs: BExpr) -> BExpr:
    return BBinOp(BBinOpKind.EQ, lhs, rhs)


def bnot(expr: BExpr) -> BExpr:
    return BUnOp(BUnOpKind.NOT, expr)


# ---------------------------------------------------------------------------
# Commands, blocks, statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Assume:
    expr: BExpr


@dataclass(frozen=True)
class BAssert:
    expr: BExpr


@dataclass(frozen=True)
class Assign:
    target: str
    rhs: BExpr


@dataclass(frozen=True)
class Havoc:
    target: str


SimpleCmd = Union[Assume, BAssert, Assign, Havoc]


@dataclass(frozen=True)
class BIf:
    """An if-statement; ``cond is None`` means nondeterministic ``if (*)``."""

    cond: Optional[BExpr]
    then: "BStmt"
    otherwise: "BStmt"


@dataclass(frozen=True)
class StmtBlock:
    """A list of simple commands followed by an optional if-statement."""

    cmds: Tuple[SimpleCmd, ...] = ()
    ifopt: Optional[BIf] = None


#: A Boogie statement: a list of statement blocks.
BStmt = Tuple[StmtBlock, ...]


def single_block(*cmds: SimpleCmd) -> BStmt:
    return (StmtBlock(tuple(cmds), None),)


def stmt_cmd_count(stmt: BStmt) -> int:
    """Total number of simple commands in a statement (harness metric)."""
    total = 0
    for block in stmt:
        total += len(block.cmds)
        if block.ifopt is not None:
            total += stmt_cmd_count(block.ifopt.then)
            total += stmt_cmd_count(block.ifopt.otherwise)
    return total


# ---------------------------------------------------------------------------
# Declarations and programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeConDecl:
    """``type Name _ ... _;`` — an uninterpreted type constructor."""

    name: str
    arity: int = 0


@dataclass(frozen=True)
class ConstDecl:
    name: str
    typ: BType
    unique: bool = False


@dataclass(frozen=True)
class GlobalVarDecl:
    name: str
    typ: BType


@dataclass(frozen=True)
class FuncDecl:
    """``function f<T...>(args): result;`` — uninterpreted, polymorphic."""

    name: str
    type_params: Tuple[str, ...]
    arg_types: Tuple[BType, ...]
    result: BType


@dataclass(frozen=True)
class AxiomDecl:
    expr: BExpr
    comment: str = ""


@dataclass(frozen=True)
class Procedure:
    """A Boogie procedure; the Viper-to-Boogie translation uses neither
    procedure pre-/postconditions nor calls, so only locals and a body."""

    name: str
    locals: Tuple[Tuple[str, BType], ...]
    body: BStmt


@dataclass(frozen=True)
class BoogieProgram:
    type_decls: Tuple[TypeConDecl, ...] = ()
    consts: Tuple[ConstDecl, ...] = ()
    globals: Tuple[GlobalVarDecl, ...] = ()
    functions: Tuple[FuncDecl, ...] = ()
    axioms: Tuple[AxiomDecl, ...] = ()
    procedures: Tuple[Procedure, ...] = ()

    def procedure(self, name: str) -> Procedure:
        for proc in self.procedures:
            if proc.name == name:
                return proc
        raise KeyError(f"no procedure named {name!r}")

    def function(self, name: str) -> FuncDecl:
        for func in self.functions:
            if func.name == name:
                return func
        raise KeyError(f"no function named {name!r}")

    def global_types(self) -> dict:
        """Types of globals and constants (the ambient variable context)."""
        env = {g.name: g.typ for g in self.globals}
        env.update({c.name: c.typ for c in self.consts})
        return env


# ---------------------------------------------------------------------------
# Traversals
# ---------------------------------------------------------------------------


def expr_children(expr: BExpr) -> Tuple[BExpr, ...]:
    if isinstance(expr, BBinOp):
        return (expr.left, expr.right)
    if isinstance(expr, BUnOp):
        return (expr.operand,)
    if isinstance(expr, FuncApp):
        return expr.args
    if isinstance(expr, MapSelect):
        return (expr.map,) + expr.indices
    if isinstance(expr, MapStore):
        return (expr.map,) + expr.indices + (expr.value,)
    if isinstance(expr, (Forall, Exists)):
        return (expr.body,)
    if isinstance(expr, CondB):
        return (expr.cond, expr.then, expr.otherwise)
    return ()


def expr_free_vars(expr: BExpr) -> frozenset:
    """Free value variables of an expression."""
    if isinstance(expr, BVar):
        return frozenset({expr.name})
    if isinstance(expr, (Forall, Exists)):
        bound_names = frozenset(name for name, _ in expr.bound)
        return expr_free_vars(expr.body) - bound_names
    result: frozenset = frozenset()
    for child in expr_children(expr):
        result |= expr_free_vars(child)
    return result


def subst_expr(expr: BExpr, mapping: dict) -> BExpr:
    """Capture-avoiding substitution of free variables by expressions."""
    if isinstance(expr, BVar):
        return mapping.get(expr.name, expr)
    if isinstance(expr, (BIntLit, BRealLit, BBoolLit)):
        return expr
    if isinstance(expr, BBinOp):
        return BBinOp(expr.op, subst_expr(expr.left, mapping), subst_expr(expr.right, mapping))
    if isinstance(expr, BUnOp):
        return BUnOp(expr.op, subst_expr(expr.operand, mapping))
    if isinstance(expr, FuncApp):
        return FuncApp(
            expr.name, expr.type_args, tuple(subst_expr(a, mapping) for a in expr.args)
        )
    if isinstance(expr, MapSelect):
        return MapSelect(
            subst_expr(expr.map, mapping),
            expr.type_args,
            tuple(subst_expr(i, mapping) for i in expr.indices),
        )
    if isinstance(expr, MapStore):
        return MapStore(
            subst_expr(expr.map, mapping),
            expr.type_args,
            tuple(subst_expr(i, mapping) for i in expr.indices),
            subst_expr(expr.value, mapping),
        )
    if isinstance(expr, CondB):
        return CondB(
            subst_expr(expr.cond, mapping),
            subst_expr(expr.then, mapping),
            subst_expr(expr.otherwise, mapping),
        )
    if isinstance(expr, (Forall, Exists)):
        bound_names = {name for name, _ in expr.bound}
        inner = {k: v for k, v in mapping.items() if k not in bound_names}
        # Rename bound variables that would capture free variables of the
        # substituted expressions.
        free_in_images = frozenset()
        for image in inner.values():
            free_in_images |= expr_free_vars(image)
        renaming = {}
        new_bound = []
        for name, typ in expr.bound:
            if name in free_in_images:
                fresh = _fresh_name(name, free_in_images | expr_free_vars(expr.body))
                renaming[name] = BVar(fresh)
                new_bound.append((fresh, typ))
            else:
                new_bound.append((name, typ))
        body = expr.body
        if renaming:
            body = subst_expr(body, renaming)
        body = subst_expr(body, inner)
        ctor = Forall if isinstance(expr, Forall) else Exists
        return ctor(expr.type_vars, tuple(new_bound), body)
    raise TypeError(f"unknown expression {expr!r}")


def _fresh_name(base: str, avoid: frozenset) -> str:
    index = 0
    while f"{base}#{index}" in avoid:
        index += 1
    return f"{base}#{index}"
