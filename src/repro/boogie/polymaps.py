"""Desugaring of Boogie's polymorphic maps (Sec. 4.4).

Trust: **untrusted-but-checked** — a standalone rendering of the paper's
map adjustment; no pipeline stage calls it (the translator emits the
function-based form directly), and the kernel would see only its
re-parsed output.

Boogie's polymorphic map types (e.g. ``<T>[Ref, Field T]T``) are
*impredicative* — a map admits any value as key, including itself — and have
no general formal model.  The paper side-steps this by adjusting the
Viper-to-Boogie implementation to represent each polymorphic map type via

* an uninterpreted type (e.g. ``HeapType``),
* polymorphic ``read``/``upd`` functions, and
* two axioms relating them (read-over-update).

This module implements that adjustment as a Boogie-to-Boogie pass:
:func:`desugar_program` rewrites every map-typed variable and every
``MapSelect``/``MapStore`` into the function-based form.  The concrete model
justifying the new declarations — partial maps with a default-valued
``read``, the circularity-breaking construction — lives with the background
theory in :mod:`repro.frontend.background`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .ast import (
    Assign,
    Assume,
    AxiomDecl,
    BAssert,
    BBinOp,
    BBinOpKind,
    BExpr,
    BIf,
    BoogieProgram,
    BStmt,
    BType,
    BUnOp,
    BVar,
    CondB,
    ConstDecl,
    Exists,
    Forall,
    FuncApp,
    FuncDecl,
    GlobalVarDecl,
    Havoc,
    MapSelect,
    MapStore,
    MapType,
    Procedure,
    SimpleCmd,
    StmtBlock,
    subst_type,
    TCon,
    TVar,
    TypeConDecl,
)


@dataclass
class DesugaredMap:
    """The function-based representation of one polymorphic map type."""

    map_type: MapType
    type_name: str
    read_name: str
    upd_name: str

    @property
    def tcon(self) -> TCon:
        return TCon(self.type_name)


@dataclass
class PolymapEnv:
    """Mapping from polymorphic map types to their desugared representation."""

    by_type: Dict[MapType, DesugaredMap] = field(default_factory=dict)

    def representation(self, map_type: MapType, hint: str = "Map") -> DesugaredMap:
        if map_type not in self.by_type:
            taken = {rep.type_name for rep in self.by_type.values()}
            name = f"{hint}Type"
            index = 0
            while name in taken:
                index += 1
                name = f"{hint}Type{index}"
            self.by_type[map_type] = DesugaredMap(
                map_type=map_type,
                type_name=name,
                read_name=f"read{name}",
                upd_name=f"upd{name}",
            )
        return self.by_type[map_type]

    def declarations(
        self,
    ) -> Tuple[List[TypeConDecl], List[FuncDecl], List[AxiomDecl]]:
        """Type, function, and axiom declarations for all representations."""
        type_decls: List[TypeConDecl] = []
        func_decls: List[FuncDecl] = []
        axioms: List[AxiomDecl] = []
        for rep in self.by_type.values():
            mt = rep.map_type
            type_decls.append(TypeConDecl(rep.type_name, 0))
            func_decls.append(
                FuncDecl(rep.read_name, mt.type_params, (rep.tcon,) + mt.arg_types, mt.result)
            )
            func_decls.append(
                FuncDecl(
                    rep.upd_name,
                    mt.type_params,
                    (rep.tcon,) + mt.arg_types + (mt.result,),
                    rep.tcon,
                )
            )
            axioms.extend(_read_upd_axioms(rep))
        return type_decls, func_decls, axioms


def _read_upd_axioms(rep: DesugaredMap) -> List[AxiomDecl]:
    """The two read-over-update axioms for a desugared map type."""
    mt = rep.map_type
    targs: Tuple[BType, ...] = tuple(TVar(p) for p in mt.type_params)
    m = BVar("m?")
    v = BVar("v?")
    keys = tuple(BVar(f"k{i}?") for i in range(len(mt.arg_types)))
    keys2 = tuple(BVar(f"l{i}?") for i in range(len(mt.arg_types)))
    bound_same = (("m?", rep.tcon),) + tuple(
        (k.name, t) for k, t in zip(keys, mt.arg_types)
    ) + (("v?", mt.result),)
    upd = FuncApp(rep.upd_name, targs, (m,) + keys + (v,))
    read_same = FuncApp(rep.read_name, targs, (upd,) + keys)
    same = AxiomDecl(
        Forall(mt.type_params, bound_same, BBinOp(BBinOpKind.EQ, read_same, v)),
        comment=f"read-over-update (same key) for {rep.type_name}",
    )
    bound_other = bound_same + tuple((k.name, t) for k, t in zip(keys2, mt.arg_types))
    distinct: Optional[BExpr] = None
    for k, l in zip(keys, keys2):
        clause = BBinOp(BBinOpKind.NE, k, l)
        distinct = clause if distinct is None else BBinOp(BBinOpKind.OR, distinct, clause)
    read_other = FuncApp(rep.read_name, targs, (upd,) + keys2)
    read_orig = FuncApp(rep.read_name, targs, (m,) + keys2)
    other = AxiomDecl(
        Forall(
            mt.type_params,
            bound_other,
            BBinOp(
                BBinOpKind.IMPLIES,
                distinct if distinct is not None else BVar("false"),
                BBinOp(BBinOpKind.EQ, read_other, read_orig),
            ),
        ),
        comment=f"read-over-update (other key) for {rep.type_name}",
    )
    return [same, other]


class _Desugarer:
    """Rewrites one program; resolves map-expression types from variables."""

    def __init__(self, env: PolymapEnv, hint_for_var):
        self._env = env
        self._hint_for_var = hint_for_var
        self._var_types: Dict[str, BType] = {}

    def desugar_type(self, typ: BType, hint: str = "Map") -> BType:
        if isinstance(typ, MapType):
            return self._env.representation(typ, hint).tcon
        if isinstance(typ, TCon):
            return TCon(typ.name, tuple(self.desugar_type(a) for a in typ.args))
        return typ

    # -- expressions ----------------------------------------------------------

    def desugar_expr(self, expr: BExpr) -> BExpr:
        if isinstance(expr, MapSelect):
            map_type = self._map_type_of(expr.map)
            rep = self._env.representation(map_type)
            return FuncApp(
                rep.read_name,
                expr.type_args,
                (self.desugar_expr(expr.map),)
                + tuple(self.desugar_expr(i) for i in expr.indices),
            )
        if isinstance(expr, MapStore):
            map_type = self._map_type_of(expr.map)
            rep = self._env.representation(map_type)
            return FuncApp(
                rep.upd_name,
                expr.type_args,
                (self.desugar_expr(expr.map),)
                + tuple(self.desugar_expr(i) for i in expr.indices)
                + (self.desugar_expr(expr.value),),
            )
        if isinstance(expr, BBinOp):
            return BBinOp(expr.op, self.desugar_expr(expr.left), self.desugar_expr(expr.right))
        if isinstance(expr, BUnOp):
            return BUnOp(expr.op, self.desugar_expr(expr.operand))
        if isinstance(expr, CondB):
            return CondB(
                self.desugar_expr(expr.cond),
                self.desugar_expr(expr.then),
                self.desugar_expr(expr.otherwise),
            )
        if isinstance(expr, FuncApp):
            return FuncApp(
                expr.name, expr.type_args, tuple(self.desugar_expr(a) for a in expr.args)
            )
        if isinstance(expr, (Forall, Exists)):
            ctor = Forall if isinstance(expr, Forall) else Exists
            saved = dict(self._var_types)
            new_bound = []
            for name, typ in expr.bound:
                self._var_types[name] = typ
                new_bound.append((name, self.desugar_type(typ)))
            body = self.desugar_expr(expr.body)
            self._var_types = saved
            return ctor(expr.type_vars, tuple(new_bound), body)
        return expr

    def _map_type_of(self, expr: BExpr) -> MapType:
        if isinstance(expr, BVar):
            typ = self._var_types.get(expr.name)
            if isinstance(typ, MapType):
                return typ
            raise TypeError(f"variable {expr.name!r} is not map-typed")
        if isinstance(expr, MapStore):
            return self._map_type_of(expr.map)
        raise TypeError(
            f"cannot resolve the map type of {expr!r}; desugaring supports "
            f"map expressions rooted at variables (which the Viper encoding "
            f"always produces)"
        )

    # -- statements -------------------------------------------------------------

    def desugar_cmd(self, cmd: SimpleCmd) -> SimpleCmd:
        if isinstance(cmd, Assume):
            return Assume(self.desugar_expr(cmd.expr))
        if isinstance(cmd, BAssert):
            return BAssert(self.desugar_expr(cmd.expr))
        if isinstance(cmd, Assign):
            return Assign(cmd.target, self.desugar_expr(cmd.rhs))
        return cmd

    def desugar_stmt(self, stmt: BStmt) -> BStmt:
        blocks = []
        for block in stmt:
            cmds = tuple(self.desugar_cmd(c) for c in block.cmds)
            ifopt = None
            if block.ifopt is not None:
                ifopt = BIf(
                    None if block.ifopt.cond is None else self.desugar_expr(block.ifopt.cond),
                    self.desugar_stmt(block.ifopt.then),
                    self.desugar_stmt(block.ifopt.otherwise),
                )
            blocks.append(StmtBlock(cmds, ifopt))
        return tuple(blocks)

    # -- program ---------------------------------------------------------------

    def desugar_program(self, program: BoogieProgram) -> BoogieProgram:
        # First pass: record variable types so map expressions resolve, and
        # pre-register representations with good name hints.
        for gvar in program.globals:
            self._var_types[gvar.name] = gvar.typ
            if isinstance(gvar.typ, MapType):
                self._env.representation(gvar.typ, self._hint_for_var(gvar.name))
        for const in program.consts:
            self._var_types[const.name] = const.typ
        for proc in program.procedures:
            for name, typ in proc.locals:
                if isinstance(typ, MapType):
                    self._env.representation(typ, self._hint_for_var(name))
        globals_ = tuple(
            GlobalVarDecl(g.name, self.desugar_type(g.typ)) for g in program.globals
        )
        consts = tuple(
            ConstDecl(c.name, self.desugar_type(c.typ), c.unique) for c in program.consts
        )
        axioms = tuple(
            AxiomDecl(self.desugar_expr(a.expr), a.comment) for a in program.axioms
        )
        procedures = []
        for proc in program.procedures:
            saved = dict(self._var_types)
            for name, typ in proc.locals:
                self._var_types[name] = typ
            body = self.desugar_stmt(proc.body)
            self._var_types = saved
            locals_ = tuple((n, self.desugar_type(t)) for n, t in proc.locals)
            procedures.append(Procedure(proc.name, locals_, body))
        type_decls, func_decls, new_axioms = self._env.declarations()
        return BoogieProgram(
            type_decls=program.type_decls + tuple(type_decls),
            consts=consts,
            globals=globals_,
            functions=program.functions + tuple(func_decls),
            axioms=tuple(new_axioms) + axioms,
            procedures=tuple(procedures),
        )


def desugar_program(
    program: BoogieProgram, env: Optional[PolymapEnv] = None
) -> BoogieProgram:
    """Rewrite all polymorphic-map uses into the function-based form."""

    def hint_for_var(name: str) -> str:
        if name.upper().startswith("H"):
            return "Heap"
        if name.upper().startswith("M") or name.upper().startswith("W"):
            return "Mask"
        return "Map"

    desugarer = _Desugarer(env if env is not None else PolymapEnv(), hint_for_var)
    return desugarer.desugar_program(program)
