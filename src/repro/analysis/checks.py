"""The check catalog: stable IDs ``VPR001`` … ``VPR010`` over the Viper AST.

Trust: **advisory** — the VPR check catalog; findings are advice to humans.

Every check reports only *provable* facts, because findings feed the
service's admission fast path where a false positive would reject a
certifiable program.  The corresponding soundness arguments:

``VPR001`` **use-before-assign** — path-insensitive definite assignment
    (intersection lattice over the CFG).  A variable is *defined* by an
    assignment, a call/new target, or an ``inhale`` that mentions it (a
    havoced local constrained by an inhale is deliberate nondeterminism,
    a common Viper idiom, so it must not be flagged).
``VPR002`` **out-parameter never assigned** — an out-parameter that is
    mentioned by the postcondition but assigned (or constrained) on no
    path to a reachable exit.
``VPR003`` **unreachable code** — statements after a literally-false
    ``assert``/``exhale`` and the dead side of a constant-condition
    branch.  ``inhale false`` is deliberately *not* reported: it is the
    standard cut idiom (our own loop desugaring emits it); it still stops
    the other analyses' flow so they never report inside cut regions.
``VPR004`` **dead store** — backward liveness: a local assignment whose
    value is never read (literal right-hand sides are exempt — defensive
    initialisation is not a defect).
``VPR005`` **unused local** — declared but neither read nor written
    anywhere in the method (a variable that is only ever *assigned* is the
    dead-store check's domain, and deliberately exempt there when the
    right-hand side is a literal).
``VPR006`` **unused field** — declared but mentioned nowhere program-wide.
``VPR007`` **unused argument** — mentioned in neither specification nor
    body.
``VPR008`` **permission flow** — a static abstraction over fractional
    masks.  Per field ``f`` the state tracks an upper bound ``hi[f]`` on
    the *total* permission held to ``f`` across all references (sound
    under aliasing: the total bounds every single location's mask), and a
    lower bound ``lo[x, f]`` on the permission held to the location
    ``x.f`` (reset whenever ``x`` is reassigned, any permission to ``f``
    is exhaled, or a call havocs the frame).  Flags: exhaling/asserting
    ``acc(e.f, p)`` when ``hi[f] < p`` (no location can satisfy it);
    writing ``e.f`` when ``hi[f] < 1``; reading ``e.f`` when
    ``hi[f] = 0``; and an ``inhale`` that pushes ``lo[x, f]`` above 1 —
    a guaranteed inconsistency (the state is cut afterwards, like
    ``inhale false``).  Non-literal amounts and loop heads degrade to the
    TOP state (``hi = ∞``), trading recall for a zero false-positive
    guarantee.
``VPR009`` **spec hygiene** — ``old()`` in a precondition (always
    rejected by the desugarer) and the literally-trivial ``assert true``.
``VPR010`` **divergence-shadowed code** — a statement that follows a
    *provably diverging* statement: a closed ``assert``/``exhale`` whose
    assertion constant-folds to false, a loop whose closed condition folds
    to true, or a conditional whose arms all diverge.  This complements
    VPR003, which works at the CFG edge level and deliberately only cuts
    on *syntactic* literals; VPR010 folds closed expressions (no
    variables, no heap, total operators only), so the two never report
    the same statement.  ``inhale`` cuts stay exempt, as in VPR003.


All checks run on the **pre-desugaring** AST: ``old()`` still exists (so
VPR009 can see it), no synthesized havoc/hoist variables trip the
definite-assignment analysis, and source positions are exact.  Synthesized
names are exempted anyway so the analyzer can also be pointed at
desugared programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from operator import attrgetter
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..viper.allocation import NewStmt
from ..viper.ast import (
    ARITH_OPS,
    CMP_OPS,
    LAZY_OPS,
    Acc,
    AExpr,
    AssertStmt,
    Assertion,
    BinOp,
    BinOpKind,
    BoolLit,
    CondAssert,
    CondExp,
    Exhale,
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
    stmt_pos,
    UnOp,
    UnOpKind,
    Var,
    VarDecl,
)
from ..viper.loops import While
from ..viper.oldexprs import OldExpr
from .cfg import CFG, CFGNode, ForwardAnalysis, build_cfg, run_forward, run_liveness

_ZERO, _ONE = Fraction(0), Fraction(1)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckInfo:
    """One catalog entry: stable ID, human name, severity, and hint."""

    code: str
    name: str
    summary: str
    severity: str
    hint: str


CHECKS: Dict[str, CheckInfo] = {
    info.code: info
    for info in (
        CheckInfo(
            "VPR001", "use-before-assign",
            "a local or out-parameter is read before any assignment",
            "warning",
            "assign or constrain the variable before reading it (an inhale "
            "mentioning it counts as a deliberate nondeterministic choice)",
        ),
        CheckInfo(
            "VPR002", "unassigned-out-parameter",
            "an out-parameter mentioned by the postcondition is assigned on "
            "no path to the exit",
            "warning",
            "assign the out-parameter on every path, or drop it from the "
            "postcondition",
        ),
        CheckInfo(
            "VPR003", "unreachable-code",
            "code after a literally-false assert/exhale or on the dead side "
            "of a constant branch",
            "warning",
            "remove the unreachable statements (or the falsifying "
            "assertion); `inhale false` cuts are not reported",
        ),
        CheckInfo(
            "VPR004", "dead-store",
            "a computed value is assigned but never read",
            "warning",
            "remove the assignment or use the value; literal initialisers "
            "are never flagged",
        ),
        CheckInfo(
            "VPR005", "unused-local",
            "a local variable is declared but never read or written",
            "warning",
            "remove the declaration",
        ),
        CheckInfo(
            "VPR006", "unused-field",
            "a field is declared but mentioned nowhere in the program",
            "warning",
            "remove the field declaration",
        ),
        CheckInfo(
            "VPR007", "unused-argument",
            "a method argument is mentioned in neither specification nor "
            "body",
            "warning",
            "remove the argument (adjusting call sites) or use it",
        ),
        CheckInfo(
            "VPR008", "permission-flow",
            "a permission operation that provably fails (or an inhale that "
            "provably yields an inconsistent mask)",
            "error",
            "the static mask bounds prove this operation cannot succeed; "
            "inhale the missing permission first (see docs/ANALYSIS.md for "
            "the abstraction)",
        ),
        CheckInfo(
            "VPR009", "spec-hygiene",
            "old() in a precondition, or a trivially-true assert",
            "warning",
            "old() is only meaningful in postconditions and bodies; "
            "`assert true` checks nothing",
        ),
        CheckInfo(
            "VPR010", "divergence-shadowed-code",
            "code after a statement that provably diverges once closed "
            "expressions are constant-folded (a folded-false assert/exhale, "
            "a folds-true loop condition, or a conditional whose arms all "
            "diverge)",
            "warning",
            "remove the shadowed statements or the diverging construct; "
            "syntactically-literal cases are VPR003's domain and reported "
            "there instead",
        ),
    )
}

ALL_CHECK_IDS: Tuple[str, ...] = tuple(sorted(CHECKS))


@dataclass(frozen=True)
class Finding:
    """One analyzer finding.

    ``subject`` is the offending AST node or name — excluded from
    equality/hash so findings deduplicate on their reportable content; it
    exists for programmatic consumers (the fuzz generator's repair loop).
    """

    code: str
    message: str
    severity: str
    method: Optional[str] = None
    line: Optional[int] = None
    subject: object = dc_field(default=None, compare=False, repr=False, hash=False)

    def to_dict(self) -> dict:
        payload = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.method is not None:
            payload["method"] = self.method
        if self.line is not None:
            payload["line"] = self.line
        return payload


def _synthesized(name: str) -> bool:
    """Names introduced by the desugaring passes (exempt from lint)."""
    return (
        "__havoc" in name
        or "__hoist" in name
        or "__fresh" in name
        or "#" in name
        or name.startswith("oldcap_")
        or name.startswith("old_")
    )


# ---------------------------------------------------------------------------
# Expression / assertion traversals (OldExpr-aware)
# ---------------------------------------------------------------------------


_CHILDREN = {
    OldExpr: lambda expr: (expr.expr,),
    FieldAcc: lambda expr: (expr.receiver,),
    BinOp: lambda expr: (expr.left, expr.right),
    UnOp: lambda expr: (expr.operand,),
    CondExp: lambda expr: (expr.cond, expr.then, expr.otherwise),
}


def _children(expr: Expr) -> Tuple[Expr, ...]:
    children = _CHILDREN.get(type(expr))
    return children(expr) if children is not None else ()


def _expr_reads(expr: Expr) -> FrozenSet[str]:
    names: Set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if type(node) is Var:
            names.add(node.name)
        else:
            stack.extend(_children(node))
    return frozenset(names)


def _expr_heap_fields(expr: Expr) -> List[str]:
    """Fields read from the *current* heap (``old()`` interiors excluded —
    they read the pre-state, whose mask the analysis does not model)."""
    fields: List[str] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is OldExpr:
            continue
        if kind is FieldAcc:
            fields.append(node.field)
        stack.extend(_children(node))
    return fields


def _expr_has_old(expr: Expr) -> bool:
    stack = [expr]
    while stack:
        node = stack.pop()
        if type(node) is OldExpr:
            return True
        stack.extend(_children(node))
    return False


_PARTS = {
    AExpr: lambda a: ((a.expr,), ()),
    Acc: lambda a: ((a.receiver, a.perm), ()),
    SepConj: lambda a: ((), (a.left, a.right)),
    Implies: lambda a: ((a.cond,), (a.body,)),
    CondAssert: lambda a: ((a.cond,), (a.then, a.otherwise)),
}


def _assertion_parts(assertion: Assertion):
    """(exprs, sub-assertions) of one assertion level."""
    parts = _PARTS.get(type(assertion))
    return parts(assertion) if parts is not None else ((), ())


def _assertion_reads(assertion: Assertion) -> FrozenSet[str]:
    exprs, subs = _assertion_parts(assertion)
    result: FrozenSet[str] = frozenset()
    for expr in exprs:
        result |= _expr_reads(expr)
    for sub in subs:
        result |= _assertion_reads(sub)
    return result


def _assertion_has_old(assertion: Assertion) -> bool:
    stack = [assertion]
    while stack:
        exprs, subs = _assertion_parts(stack.pop())
        if any(_expr_has_old(expr) for expr in exprs):
            return True
        stack.extend(subs)
    return False


def _literal_false(assertion: Assertion) -> bool:
    """Literally-false at the top level (through separating conjunction)."""
    if isinstance(assertion, AExpr):
        return isinstance(assertion.expr, BoolLit) and not assertion.expr.value
    if isinstance(assertion, SepConj):
        return _literal_false(assertion.left) or _literal_false(assertion.right)
    return False


def _is_literal_expr(expr: Expr) -> bool:
    return isinstance(expr, (IntLit, BoolLit, NullLit, PermLit))


# ---------------------------------------------------------------------------
# Per-node facts (shared by the dataflow clients)
# ---------------------------------------------------------------------------


#: The statements that carry an assertion.
_SPEC_STMTS = (Inhale, Exhale, AssertStmt)


def _annotate(cfg: CFG, fields: Tuple[str, ...]) -> None:
    """Attach each node's facts as attributes, once, right after
    :func:`build_cfg`.  The worklist engine calls the transfer functions
    once per fixpoint *visit* (several times per node on loops), so they
    read these instead of walking the statement again:

    * ``reads`` — every variable the node reads (liveness uses);
    * ``checked_reads`` — the reads the definite-assignment check reports
      on: all but an ``inhale``'s, since inhaling a fact about a havoced
      variable is how the subset expresses a nondeterministic choice;
    * ``fields`` — the fields the statement mentions (``old()`` included);
    * ``defs`` — the variables the node writes or declares;
    * ``kills_flow`` — the node makes all successors unreachable;
    * ``constant`` — a branch or loop head's literal condition, else None;
    * ``perm_identity`` — its permission transfer is provably the identity.
    """
    for node in cfg.nodes:
        stmt = node.stmt
        cls = type(stmt)
        reads: Set[str] = set()
        mentioned: Set[str] = set()
        has_acc = False
        node.constant = None
        if node.kind in ("branch", "loop-head"):
            _expr_facts(stmt.cond, reads, mentioned)
            if node.kind == "loop-head":
                _assertion_facts(stmt.invariant, reads, mentioned)
            if type(stmt.cond) is BoolLit:
                node.constant = stmt.cond.value
        elif cls is LocalAssign:
            _expr_facts(stmt.rhs, reads, mentioned)
        elif cls is FieldAssign:
            mentioned.add(stmt.field)
            _expr_facts(stmt.receiver, reads, mentioned)
            _expr_facts(stmt.rhs, reads, mentioned)
        elif cls is MethodCall:
            for arg in stmt.args:
                _expr_facts(arg, reads, mentioned)
        elif cls in _SPEC_STMTS:
            has_acc = _assertion_facts(stmt.assertion, reads, mentioned)
        elif cls is NewStmt:
            mentioned.update(fields if stmt.all_fields else stmt.fields)
        node.reads = frozenset(reads)
        node.checked_reads = frozenset() if cls is Inhale else node.reads
        node.fields = mentioned
        node.defs = _defs(stmt)
        node.kills_flow = cls in _SPEC_STMTS and _literal_false(stmt.assertion)
        node.perm_identity = _perm_identity(node, has_acc)


def _expr_facts(expr: Expr, reads: Set[str], fields: Set[str]) -> None:
    """Add the variables ``expr`` reads and the fields it mentions."""
    kind = type(expr)
    if kind is Var:
        reads.add(expr.name)
        return
    if kind is FieldAcc:
        fields.add(expr.field)
    children = _CHILDREN.get(kind)
    if children is not None:
        for child in children(expr):
            _expr_facts(child, reads, fields)


def _assertion_facts(assertion: Assertion, reads: Set[str], fields: Set[str]) -> bool:
    """Add an assertion's reads and fields; returns whether it has an ``acc``."""
    has_acc = False
    stack = [assertion]
    while stack:
        node = stack.pop()
        if isinstance(node, Acc):
            has_acc = True
            fields.add(node.field)
        exprs, subs = _assertion_parts(node)
        for expr in exprs:
            _expr_facts(expr, reads, fields)
        stack.extend(subs)
    return has_acc


def _defs(stmt) -> FrozenSet[str]:
    if isinstance(stmt, LocalAssign):
        return frozenset({stmt.target})
    if isinstance(stmt, MethodCall):
        return frozenset(stmt.targets)
    if isinstance(stmt, NewStmt):
        return frozenset({stmt.target})
    if isinstance(stmt, VarDecl):
        return frozenset({stmt.name})
    return frozenset()


class _SemanticAnalysis(ForwardAnalysis):
    """Shared behaviour: literal-false statements and constant-condition
    edges cut the flow, so no semantic check reports inside dead code."""

    def transfer_edge(self, node: CFGNode, state, label):
        if node.constant is not None and label != node.constant:
            return None
        return state


# ---------------------------------------------------------------------------
# VPR001 / VPR002: definite assignment
# ---------------------------------------------------------------------------


class _DefiniteAssignment(_SemanticAnalysis):
    """State: the set of definitely-assigned (or constrained) variables.

    Join is intersection (assigned on *every* path)."""

    def __init__(self, entry_assigned: FrozenSet[str]):
        self._entry = entry_assigned

    def initial(self):
        return self._entry

    def join(self, a, b):
        return a & b

    def transfer(self, node: CFGNode, state):
        if node.kills_flow:
            return None
        stmt = node.stmt
        if isinstance(stmt, VarDecl):
            return state - {stmt.name}
        if isinstance(stmt, Inhale):
            return state | node.reads
        if node.kind == "loop-head":
            # The desugaring inhales the invariant at the head.
            return state | _assertion_reads(stmt.invariant)
        return (state | node.defs) if node.defs else state


# ---------------------------------------------------------------------------
# VPR003: reporting reachability (inhale-false cuts are *not* reported)
# ---------------------------------------------------------------------------


def _report_reachable(cfg: CFG) -> Set[int]:
    """The nodes reachable from the entry when only literally-false
    ``exhale``/``assert`` statements and the dead edges of constant
    conditions cut the flow.  Every state of this analysis is the same
    fact, so a plain graph search computes its fixpoint."""
    reachable = {cfg.entry}
    stack = [cfg.entry]
    while stack:
        node = cfg.nodes[stack.pop()]
        if node.kills_flow and not isinstance(node.stmt, Inhale):
            continue
        for succ, label in cfg.succs[node.index]:
            if label is not None and node.constant is not None and label != node.constant:
                continue
            if succ not in reachable:
                reachable.add(succ)
                stack.append(succ)
    return reachable


# ---------------------------------------------------------------------------
# VPR010: divergence-shadowed code (constant folding over closed exprs)
# ---------------------------------------------------------------------------

#: Distinguishes ``null`` from every bool/int/Fraction folding result.
_NULL = object()


def _fold_expr(expr: Expr):
    """The value of a *closed* expression, or ``None`` when it mentions
    state (variables, heap, ``old``) or any partial operation (division or
    modulo by zero).  Short-circuiting follows the executable semantics,
    so ``false && x.f > 0`` folds even though its right operand does not.
    ``None`` always means "unknown", never a value: every foldable
    expression of the subset yields a bool, an int, a Fraction, or
    ``_NULL``."""
    if isinstance(expr, (IntLit, BoolLit)):
        return expr.value
    if isinstance(expr, PermLit):
        return expr.amount
    if isinstance(expr, NullLit):
        return _NULL
    if isinstance(expr, UnOp):
        value = _fold_expr(expr.operand)
        if expr.op is UnOpKind.NOT and value in (True, False):
            return not value
        if expr.op is UnOpKind.NEG and value is not None and value is not _NULL \
                and not isinstance(value, bool):
            return -value
        return None
    if isinstance(expr, CondExp):
        cond = _fold_expr(expr.cond)
        if cond in (True, False):
            return _fold_expr(expr.then if cond else expr.otherwise)
        return None
    if isinstance(expr, BinOp):
        return _fold_binop(expr)
    return None


def _fold_binop(expr: BinOp):
    left = _fold_expr(expr.left)
    if expr.op in LAZY_OPS:
        if left not in (True, False):
            return None
        if expr.op is BinOpKind.AND and left is False:
            return False
        if expr.op is BinOpKind.OR and left is True:
            return True
        if expr.op is BinOpKind.IMPLIES and left is False:
            return True
        right = _fold_expr(expr.right)
        return right if right in (True, False) else None
    right = _fold_expr(expr.right)
    if left is None or right is None or left is _NULL or right is _NULL:
        if expr.op in (BinOpKind.EQ, BinOpKind.NE) and _NULL in (left, right):
            # null == null / null != null fold; null against unknown does not.
            if left is _NULL and right is _NULL:
                return expr.op is BinOpKind.EQ
        return None
    numeric = not isinstance(left, bool) and not isinstance(right, bool)
    if expr.op in ARITH_OPS or expr.op is BinOpKind.PERM_DIV:
        if not numeric:
            return None
        try:
            if expr.op is BinOpKind.ADD:
                return left + right
            if expr.op is BinOpKind.SUB:
                return left - right
            if expr.op is BinOpKind.MUL:
                return left * right
            if expr.op is BinOpKind.DIV:
                return left // right
            if expr.op is BinOpKind.MOD:
                return left % right
            return Fraction(left) / Fraction(right)
        except ZeroDivisionError:
            return None  # partial: the well-definedness check governs it
    if expr.op in CMP_OPS:
        if not numeric:
            return None
        if expr.op is BinOpKind.LT:
            return left < right
        if expr.op is BinOpKind.LE:
            return left <= right
        if expr.op is BinOpKind.GT:
            return left > right
        return left >= right
    if expr.op in (BinOpKind.EQ, BinOpKind.NE):
        if isinstance(left, bool) is not isinstance(right, bool):
            return None  # ill-typed comparison; the typechecker's domain
        return (left == right) if expr.op is BinOpKind.EQ else (left != right)
    return None


def _folds_false(assertion: Assertion) -> bool:
    """Folds to false at the top level (through separating conjunction) —
    the folding analogue of :func:`_literal_false`."""
    if isinstance(assertion, AExpr):
        return _fold_expr(assertion.expr) is False
    if isinstance(assertion, SepConj):
        return _folds_false(assertion.left) or _folds_false(assertion.right)
    return False


def _diverges(stmt: Stmt) -> bool:
    """Provably no fault-free continuation past this statement."""
    if isinstance(stmt, (AssertStmt, Exhale)):
        return _folds_false(stmt.assertion)
    if isinstance(stmt, While):
        return _fold_expr(stmt.cond) is True
    if isinstance(stmt, If):
        cond = _fold_expr(stmt.cond)
        if cond is True:
            return _diverges(stmt.then)
        if cond is False:
            return _diverges(stmt.otherwise)
        return _diverges(stmt.then) and _diverges(stmt.otherwise)
    if isinstance(stmt, Seq):
        return _diverges(stmt.first) or _diverges(stmt.second)
    return False


def _diverges_literally(stmt: Stmt) -> bool:
    """The sub-case VPR003's edge-level machinery already sees: syntactic
    ``false`` assertions and syntactic ``true``/``false`` conditions, with
    no folding.  VPR010 keeps quiet exactly here."""
    if isinstance(stmt, (AssertStmt, Exhale)):
        return _literal_false(stmt.assertion)
    if isinstance(stmt, While):
        return isinstance(stmt.cond, BoolLit) and stmt.cond.value
    if isinstance(stmt, If):
        if isinstance(stmt.cond, BoolLit):
            branch = stmt.then if stmt.cond.value else stmt.otherwise
            return _diverges_literally(branch)
        return _diverges_literally(stmt.then) and _diverges_literally(
            stmt.otherwise
        )
    if isinstance(stmt, Seq):
        return _diverges_literally(stmt.first) or _diverges_literally(
            stmt.second
        )
    return False


def _flatten_seq(stmt: Stmt) -> List[Stmt]:
    if isinstance(stmt, Seq):
        return _flatten_seq(stmt.first) + _flatten_seq(stmt.second)
    return [stmt]


def _divergence_kind(stmt: Stmt) -> str:
    if isinstance(stmt, (AssertStmt, Exhale)):
        return "assertion folds to false"
    if isinstance(stmt, While):
        return "loop condition folds to true"
    return "every arm of the conditional diverges"


def _check_divergence(
    body: Stmt, method: MethodDecl, findings: List[Finding]
) -> None:
    """Walk one statement level; report the first statement shadowed by a
    folded-diverging predecessor, mirroring VPR003's first-of-region rule.
    Nothing inside a dead region is visited — no reports inside dead
    code, folded or literal."""
    stmts = _flatten_seq(body)
    for index, stmt in enumerate(stmts):
        if isinstance(stmt, If):
            _check_divergence(stmt.then, method, findings)
            _check_divergence(stmt.otherwise, method, findings)
        elif isinstance(stmt, While):
            _check_divergence(stmt.body, method, findings)
        if not _diverges(stmt):
            continue
        if not _diverges_literally(stmt) and index + 1 < len(stmts):
            line = stmt_pos(stmts[index + 1])
            findings.append(Finding(
                "VPR010",
                f"method {method.name!r}: code after a diverging statement "
                f"({_divergence_kind(stmt)})",
                CHECKS["VPR010"].severity,
                method=method.name,
                line=line,
                subject=stmts[index + 1],
            ))
        return


# ---------------------------------------------------------------------------
# VPR008: the permission-flow abstraction
# ---------------------------------------------------------------------------

#: ``None`` inside ``hi`` means +∞ (unknown upper bound).
_PermHi = Optional[Fraction]


@dataclass
class _PermState:
    """hi: per-field upper bound on *total* permission; lo: per-(var, field)
    lower bound on the permission held to that location.

    Stored as plain dicts, treated as immutable by convention: the
    transfer functions always go through ``hi_map``/``lo_map`` copies and
    rebuild via ``make``.  Dict equality is order-insensitive, so the
    fixpoint engine's ``equals`` works unchanged, and skipping the old
    sorted-tuple canonicalisation keeps the analyze stage inside its <5%
    pipeline budget (docs/ANALYSIS.md § Performance)."""

    hi: Dict[str, _PermHi]
    lo: Dict[Tuple[str, str], Fraction]

    @staticmethod
    def make(hi: Dict[str, _PermHi], lo: Dict[Tuple[str, str], Fraction]):
        # (A rational's sign is its numerator's; this skips Fraction's
        # slow generic comparison.)
        return _PermState(hi, {k: v for k, v in lo.items() if v.numerator > 0})

    def hi_map(self) -> Dict[str, _PermHi]:
        return dict(self.hi)

    def lo_map(self) -> Dict[Tuple[str, str], Fraction]:
        return dict(self.lo)


def _hi_add(a: _PermHi, amount: Optional[Fraction]) -> _PermHi:
    if a is None or amount is None:
        return None
    return a + amount


def _hi_sub(a: _PermHi, amount: Fraction) -> _PermHi:
    if a is None:
        return None
    return max(a - amount, _ZERO)


def _hi_lt(a: _PermHi, amount: Fraction) -> bool:
    """Is the upper bound provably below ``amount``? (∞ never is.)"""
    return a is not None and a < amount


def _perm_identity(node: CFGNode, has_acc: bool) -> bool:
    """Is the permission transfer of this node provably the identity?

    With ``report=None`` the fixpoint transfer only *changes* state on
    ``acc`` conjuncts, allocation, calls, assignments, and loop heads;
    the ubiquitous pure assertions (``assert x.f > 0``) walk the whole
    assertion just to return the input.  Deciding that once per node and
    short-circuiting keeps the analyze stage inside its <5% budget.  A
    node that mentions a field never takes this path: its transfer also
    collects the node's findings (see :class:`_PermissionFlow`)."""
    if node.kind in ("entry", "exit", "branch"):
        return True  # _heap_reads is a no-op without a report sink
    if node.kind == "loop-head":
        return False
    stmt = node.stmt
    if isinstance(stmt, (Inhale, Exhale, AssertStmt)):
        return not node.kills_flow and not has_acc
    return isinstance(stmt, (VarDecl, Skip))


class _PermissionFlow(_SemanticAnalysis):
    """``entry`` is the state after inhaling the precondition, computed
    once by the caller (it also reports on the precondition).

    The transfer of a node that mentions a field also collects that
    node's findings; ``reports`` keeps those of its latest visit.  The
    engine re-queues a node whenever its in-state changes, so the latest
    visit runs on the fixpoint's in-state, and ``reports`` holds exactly
    what a reporting pass over the final in-states would find."""

    def __init__(
        self, fields: Tuple[str, ...], method: MethodDecl, entry: _PermState
    ):
        self._fields = fields
        self._method = method
        self._entry = entry
        self.reports: Dict[int, List[Finding]] = {}

    # -- lattice ----------------------------------------------------------

    def initial(self):
        return self._entry

    def join(self, a: _PermState, b: _PermState):
        return _perm_join(a, b)

    def widen(self, old: _PermState, new: _PermState):
        """Degrade any growing bound straight to TOP so loops converge."""
        ohi, nhi = old.hi_map(), new.hi_map()
        hi: Dict[str, _PermHi] = {}
        for f in set(ohi) | set(nhi):
            x, y = ohi.get(f, _ZERO), nhi.get(f, _ZERO)
            hi[f] = x if (x is not None and y is not None and y <= x) else None
        olo, nlo = old.lo_map(), new.lo_map()
        lo = {
            key: olo[key]
            for key in olo
            if nlo.get(key, _ZERO) >= olo[key]
        }
        return _PermState.make(hi, lo)

    # -- transfer ---------------------------------------------------------

    def transfer(self, node: CFGNode, state: _PermState):
        if node.fields:  # every finding names a field the node mentions
            report = self.reports[node.index] = []
            return _perm_node(node, state, self._fields, report, self._method)
        if node.perm_identity:
            return state
        return _perm_node(node, state, self._fields, report=None)


def _perm_top(fields: Tuple[str, ...]) -> _PermState:
    return _PermState.make({f: None for f in fields}, {})


def _perm_node(
    node: CFGNode,
    state: _PermState,
    fields: Tuple[str, ...],
    report: Optional[List[Finding]],
    method: Optional[MethodDecl] = None,
) -> Optional[_PermState]:
    """Shared transfer/report body.  With ``report=None`` it is the pure
    transfer; with a list it also appends findings (the reporting pass
    re-runs it on the fixpoint's in-states)."""
    if node.kills_flow:
        return None
    stmt = node.stmt
    line = node.pos
    if node.kind == "branch":
        _heap_reads(state, (stmt.cond,), report, method, line)
        return state
    if node.kind == "loop-head":
        # entry/preservation exhale of the invariant, checked against the
        # joined in-state (sound: the entry path's bound is ≤ the join) …
        after = _perm_assertion(state, stmt.invariant, "exhale",
                                definite=True, report=report,
                                method=method, line=line)
        # … then the head havocs the frame and re-inhales the invariant.
        top = _perm_top(fields)
        inhaled = _perm_assertion(top, stmt.invariant, "inhale",
                                  definite=True, report=report,
                                  method=method, line=line)
        if after is None or inhaled is None:
            return None
        return inhaled
    if isinstance(stmt, LocalAssign):
        _heap_reads(state, (stmt.rhs,), report, method, line)
        return _drop_var_lo(state, stmt.target)
    if isinstance(stmt, FieldAssign):
        _heap_reads(state, (stmt.receiver, stmt.rhs), report, method, line)
        hi = state.hi_map().get(stmt.field, _ZERO)
        if report is not None and _hi_lt(hi, _ONE):
            report.append(Finding(
                "VPR008",
                f"write to .{stmt.field} requires full permission, but at "
                f"most {hi} can be held here",
                CHECKS["VPR008"].severity,
                method=method.name if method else None,
                line=line,
                subject=stmt,
            ))
        return state
    if isinstance(stmt, MethodCall):
        _heap_reads(state, stmt.args, report, method, line)
        # The callee may exhale and inhale arbitrary permission.
        return _perm_top(fields)
    if isinstance(stmt, NewStmt):
        allocated = fields if stmt.all_fields else stmt.fields
        hi = state.hi_map()
        lo = state.lo_map()
        for key in [k for k in lo if k[0] == stmt.target]:
            del lo[key]
        for f in allocated:
            hi[f] = _hi_add(hi.get(f, _ZERO), _ONE)
            lo[(stmt.target, f)] = _ONE
        return _PermState.make(hi, lo)
    if isinstance(stmt, Inhale):
        return _perm_assertion(state, stmt.assertion, "inhale",
                               definite=True, report=report,
                               method=method, line=line)
    if isinstance(stmt, Exhale):
        return _perm_assertion(state, stmt.assertion, "exhale",
                               definite=True, report=report,
                               method=method, line=line)
    if isinstance(stmt, AssertStmt):
        return _perm_assertion(state, stmt.assertion, "assert",
                               definite=True, report=report,
                               method=method, line=line)
    return state


def _drop_var_lo(state: _PermState, name: str) -> _PermState:
    if not any(key[0] == name for key in state.lo):
        return state
    lo = {k: v for k, v in state.lo_map().items() if k[0] != name}
    return _PermState.make(state.hi_map(), lo)


def _heap_reads(
    state: _PermState,
    exprs,
    report: Optional[List[Finding]],
    method: Optional[MethodDecl],
    line: Optional[int],
) -> None:
    if report is None:
        return
    hi = state.hi
    for expr in exprs:
        for f in _expr_heap_fields(expr):
            bound = hi.get(f, _ZERO)
            if bound is not None and not bound:  # provably zero
                report.append(Finding(
                    "VPR008",
                    f"read of .{f}, but no permission to {f} can be held "
                    f"here",
                    CHECKS["VPR008"].severity,
                    method=method.name if method else None,
                    line=line,
                ))


def _perm_assertion(
    state: Optional[_PermState],
    assertion: Assertion,
    mode: str,
    *,
    definite: bool,
    report: Optional[List[Finding]],
    method: Optional[MethodDecl] = None,
    line: Optional[int] = None,
    eval_state: Optional[_PermState] = None,
    flag_inconsistency: bool = True,
) -> Optional[_PermState]:
    """Process an assertion left-to-right in ``inhale``/``exhale``/
    ``assert`` mode.  ``definite`` is False under a guard (``==>``/``?:``),
    where nothing is reported because the guard may be false.  Returns
    ``None`` when the state is provably inconsistent afterwards.

    ``eval_state`` is the state heap *reads* are checked against: per the
    exhale semantics (``remcheck(a, σ, σ)``), pure sub-expressions are
    evaluated in the state at the start of the exhale, so
    ``exhale acc(x.f) && x.f == r`` is well-defined even though the
    permission is removed by the first conjunct.  During inhale the
    running state is used instead (permissions only grow)."""
    if state is None:
        return None
    if eval_state is None:
        eval_state = state
    emit = report if (report is not None and definite) else None
    read_state = state if mode == "inhale" else eval_state
    if isinstance(assertion, AExpr):
        if emit is not None:
            _heap_reads(read_state, (assertion.expr,), emit, method, line)
        return state
    if isinstance(assertion, SepConj):
        for part in _conjuncts(assertion):
            state = _perm_assertion(state, part, mode, definite=definite,
                                    report=report, method=method, line=line,
                                    eval_state=eval_state,
                                    flag_inconsistency=flag_inconsistency)
        return state
    if isinstance(assertion, Implies):
        _heap_reads(read_state, (assertion.cond,), emit, method, line)
        taken = _perm_assertion(state, assertion.body, mode, definite=False,
                                report=None, method=method, line=line,
                                eval_state=eval_state,
                                flag_inconsistency=flag_inconsistency)
        if taken is None:
            return state  # the guard is provably false in consistent states
        return _perm_join(state, taken)
    if isinstance(assertion, CondAssert):
        _heap_reads(read_state, (assertion.cond,), emit, method, line)
        then = _perm_assertion(state, assertion.then, mode, definite=False,
                               report=None, method=method, line=line,
                               eval_state=eval_state,
                                flag_inconsistency=flag_inconsistency)
        other = _perm_assertion(state, assertion.otherwise, mode,
                                definite=False, report=None,
                                method=method, line=line,
                                eval_state=eval_state,
                                flag_inconsistency=flag_inconsistency)
        if then is None:
            return other
        if other is None:
            return then
        return _perm_join(then, other)
    if isinstance(assertion, Acc):
        _heap_reads(read_state, (assertion.receiver, assertion.perm), emit, method, line)
        hi = state.hi_map()
        lo = state.lo_map()
        f = assertion.field
        amount = (
            assertion.perm.amount if isinstance(assertion.perm, PermLit) else None
        )
        receiver = (
            assertion.receiver.name
            if isinstance(assertion.receiver, Var)
            else None
        )
        if mode == "inhale":
            hi[f] = _hi_add(hi.get(f, _ZERO), amount)
            if receiver is not None and amount is not None:
                key = (receiver, f)
                lo[key] = lo.get(key, _ZERO) + amount
                if lo[key] > 1:
                    if emit is not None and flag_inconsistency:
                        emit.append(Finding(
                            "VPR008",
                            f"inhale pushes the permission to "
                            f"{receiver}.{f} to {lo[key]} > 1 — the state "
                            f"is guaranteed inconsistent",
                            CHECKS["VPR008"].severity,
                            method=method.name if method else None,
                            line=line,
                            subject=assertion,
                        ))
                    return None
            return _PermState.make(hi, lo)
        # exhale / assert both require the permission to be present.
        if amount is not None and amount > 0 and _hi_lt(hi.get(f, _ZERO), amount):
            if emit is not None:
                verb = "exhale" if mode == "exhale" else "assert"
                emit.append(Finding(
                    "VPR008",
                    f"{verb} of acc(..{f}, {amount}) but at most "
                    f"{hi.get(f, _ZERO)} permission to {f} can be "
                    f"held here",
                    CHECKS["VPR008"].severity,
                    method=method.name if method else None,
                    line=line,
                    subject=assertion,
                ))
        if mode == "exhale":
            if amount is not None:
                hi[f] = _hi_sub(hi.get(f, _ZERO), amount)
            for key in list(lo):
                if key[1] != f:
                    continue
                if receiver is not None and amount is not None and key[0] == receiver:
                    lo[key] = max(lo[key] - amount, _ZERO)
                else:
                    del lo[key]  # an alias may have lost this permission
        else:  # assert: the state is unchanged, but on success we may
            # strengthen the location's lower bound.
            if receiver is not None and amount is not None:
                key = (receiver, f)
                lo[key] = max(lo.get(key, _ZERO), amount)
        return _PermState.make(hi, lo)
    return state


def _conjuncts(assertion: Assertion) -> List[Assertion]:
    """The operands of a tree of separating conjunctions, left to right."""
    parts: List[Assertion] = []
    stack = [assertion]
    while stack:
        node = stack.pop()
        if isinstance(node, SepConj):
            stack.append(node.right)
            stack.append(node.left)
        else:
            parts.append(node)
    return parts


def _perm_join(a: _PermState, b: _PermState) -> _PermState:
    if a is b:
        return a
    ahi, bhi = a.hi_map(), b.hi_map()
    hi: Dict[str, _PermHi] = {}
    for f in set(ahi) | set(bhi):
        x, y = ahi.get(f, _ZERO), bhi.get(f, _ZERO)
        hi[f] = None if (x is None or y is None) else max(x, y)
    alo, blo = a.lo_map(), b.lo_map()
    lo = {
        key: min(alo.get(key, _ZERO), blo.get(key, _ZERO))
        for key in set(alo) | set(blo)
    }
    return _PermState.make(hi, lo)


def _check_permissions(
    method: MethodDecl, fields: Tuple[str, ...], cfg: CFG
) -> List[Finding]:
    """VPR008 over one method: the precondition's inhale, the fixpoint
    (which collects the body's findings), then the postcondition's
    exhale at the exit."""
    findings: List[Finding] = []
    # A contradictory precondition (lo > 1) is *not* reported: it makes the
    # method vacuous (never callable), which the corpus uses deliberately —
    # the body is simply skipped, like code behind `inhale false`.
    entry_state = _perm_assertion(
        _PermState.make({f: _ZERO for f in fields}, {}),
        method.pre, "inhale", definite=True, report=findings,
        method=method, line=method.pos, flag_inconsistency=False,
    )
    if entry_state is None:
        return findings
    flow = _PermissionFlow(fields, method, entry_state)
    perm_in = run_forward(cfg, flow)
    for index in sorted(flow.reports):
        findings.extend(flow.reports[index])
    if cfg.exit in perm_in:
        _perm_assertion(perm_in[cfg.exit], method.post, "exhale", definite=True,
                        report=findings, method=method, line=method.pos)
    return findings


# ---------------------------------------------------------------------------
# The analyzer
# ---------------------------------------------------------------------------


def analyze_program(program: Program) -> List[Finding]:
    """Run every check over a (pre-desugaring) Viper program.

    Returns findings sorted by source line, then check ID."""
    findings: List[Finding] = []
    fields = tuple(decl.name for decl in program.fields)

    mentioned_fields: Set[str] = set()
    for method in program.methods:
        findings.extend(_analyze_method(method, fields, mentioned_fields))

    # VPR006: unused fields (program-wide).
    for decl in program.fields:
        if decl.name not in mentioned_fields and not _synthesized(decl.name):
            findings.append(Finding(
                "VPR006",
                f"field {decl.name!r} is declared but never mentioned",
                CHECKS["VPR006"].severity,
                line=decl.pos,
                subject=decl.name,
            ))

    # Findings hash without their `subject`, so dedupe keeps the first
    # occurrence from the original (deterministic) traversal order.
    seen = set()
    ordered: List[Finding] = []
    for finding in findings:
        if finding in seen:
            continue
        seen.add(finding)
        ordered.append(finding)
    ordered.sort(key=lambda f: (f.line if f.line is not None else 0, f.code, f.message))
    return ordered


def _analyze_method(
    method: MethodDecl, fields: Tuple[str, ...], mentioned_fields: Set[str]
) -> List[Finding]:
    """The findings of one method; adds the fields its specification and
    body mention to ``mentioned_fields`` (VPR006 is program-wide)."""
    findings: List[Finding] = []

    # ---- VPR009(a): old() in a precondition ------------------------------
    if _assertion_has_old(method.pre):
        findings.append(Finding(
            "VPR009",
            f"method {method.name!r}: old() in a precondition (it denotes "
            f"the pre-state, which *is* the precondition's state)",
            "error",
            method=method.name,
            line=method.pos,
        ))

    spec_reads: Set[str] = set()
    post_reads: Set[str] = set()
    method_fields: Set[str] = set()
    _assertion_facts(method.pre, spec_reads, method_fields)
    _assertion_facts(method.post, post_reads, method_fields)
    spec_reads |= post_reads
    mentioned_fields |= method_fields

    if method.body is None:
        # Abstract method: only the signature checks apply.
        for name, _ in method.args:
            if name not in spec_reads and not _synthesized(name):
                findings.append(Finding(
                    "VPR007",
                    f"method {method.name!r}: argument {name!r} is never "
                    f"used",
                    CHECKS["VPR007"].severity,
                    method=method.name,
                    line=method.pos,
                    subject=name,
                ))
        return findings

    cfg = build_cfg(method.body)
    _annotate(cfg, fields)
    # CFG creation order is program-text order.
    declarations = [node.stmt for node in cfg.nodes if isinstance(node.stmt, VarDecl)]

    # ---- body-wide read/write/mention sets ------------------------------
    body_reads: Set[str] = set()
    body_defs: Set[str] = set()
    for node in cfg.nodes:
        body_reads |= node.reads
        body_defs |= node.defs
        method_fields |= node.fields
    mentioned_fields |= method_fields

    # ---- VPR001/VPR002: definite assignment ------------------------------
    arg_names = frozenset(method.arg_names)
    return_names = frozenset(method.return_names)
    assignment = _DefiniteAssignment(arg_names)
    assigned_in = run_forward(cfg, assignment)
    reachable = set(assigned_in)
    declared_locals = {d.name for d in declarations}
    for node in cfg.nodes:
        if node.index not in assigned_in:
            continue
        state = assigned_in[node.index]
        for name in sorted(node.checked_reads):
            if name in state or _synthesized(name):
                continue
            if name not in return_names and name not in declared_locals:
                continue  # args and anything unknown are assumed assigned
            findings.append(Finding(
                "VPR001",
                f"method {method.name!r}: {name!r} may be read before "
                f"assignment",
                CHECKS["VPR001"].severity,
                method=method.name,
                line=node.pos,
                subject=name,
            ))
    if cfg.exit in assigned_in:
        exit_state = assigned_in[cfg.exit]
        for name in sorted(return_names):
            if name in exit_state or _synthesized(name):
                continue
            if name not in post_reads:
                continue
            findings.append(Finding(
                "VPR002",
                f"method {method.name!r}: out-parameter {name!r} is "
                f"mentioned by the postcondition but assigned on no path "
                f"to the exit",
                CHECKS["VPR002"].severity,
                method=method.name,
                line=method.pos,
                subject=name,
            ))

    # ---- VPR003: unreachable code ---------------------------------------
    report_reach = _report_reachable(cfg)
    for node in cfg.nodes:
        if node.kind not in ("stmt", "branch", "loop-head"):
            continue
        if node.index in report_reach:
            continue
        if not any(pred in report_reach for pred, _ in cfg.preds[node.index]):
            continue  # only flag the first statement of a dead region
        findings.append(Finding(
            "VPR003",
            f"method {method.name!r}: unreachable code",
            CHECKS["VPR003"].severity,
            method=method.name,
            line=node.pos,
            subject=node.stmt,
        ))

    # ---- VPR010: divergence-shadowed code (folded, not literal) ----------
    _check_divergence(method.body, method, findings)

    # ---- VPR004: dead stores --------------------------------------------
    exit_live = frozenset(return_names) | post_reads
    live_out = run_liveness(cfg, attrgetter("reads"), attrgetter("defs"), exit_live)
    for node in cfg.nodes:
        stmt = node.stmt
        if not isinstance(stmt, LocalAssign) or node.kind != "stmt":
            continue
        if node.index not in reachable:
            continue
        if _is_literal_expr(stmt.rhs) or _synthesized(stmt.target):
            continue
        if stmt.target in live_out.get(node.index, frozenset()):
            continue
        if stmt.target not in body_reads:
            continue  # never read at all → VPR005 reports the declaration
        findings.append(Finding(
            "VPR004",
            f"method {method.name!r}: value assigned to {stmt.target!r} is "
            f"never used (dead store)",
            CHECKS["VPR004"].severity,
            method=method.name,
            line=node.pos,
            subject=stmt,
        ))

    # ---- VPR005: unused locals ------------------------------------------
    # Writes only (declarations are defs for the assignment analysis but
    # must not count as "uses" here).
    body_writes: Set[str] = set()
    for node in cfg.nodes:
        if not isinstance(node.stmt, VarDecl):
            body_writes |= node.defs
    for decl in declarations:
        if _synthesized(decl.name):
            continue
        if decl.name in body_reads or decl.name in body_writes:
            continue
        findings.append(Finding(
            "VPR005",
            f"method {method.name!r}: local {decl.name!r} is declared but "
            f"never used",
            CHECKS["VPR005"].severity,
            method=method.name,
            line=decl.pos,
            subject=decl,
        ))

    # ---- VPR007: unused arguments ---------------------------------------
    # (``body_reads`` includes every loop invariant's reads.)
    used = spec_reads | body_reads | body_defs
    for name, _ in method.args:
        if name in used or _synthesized(name):
            continue
        findings.append(Finding(
            "VPR007",
            f"method {method.name!r}: argument {name!r} is never used",
            CHECKS["VPR007"].severity,
            method=method.name,
            line=method.pos,
            subject=name,
        ))

    # ---- VPR008: permission flow ----------------------------------------
    # Every VPR008 finding names a field its statement or spec mentions.
    if method_fields:
        findings.extend(_check_permissions(method, fields, cfg))

    # ---- VPR009(b): trivially-true asserts ------------------------------
    for node in cfg.stmt_nodes():
        stmt = node.stmt
        if (
            isinstance(stmt, AssertStmt)
            and isinstance(stmt.assertion, AExpr)
            and isinstance(stmt.assertion.expr, BoolLit)
            and stmt.assertion.expr.value
        ):
            findings.append(Finding(
                "VPR009",
                f"method {method.name!r}: `assert true` checks nothing",
                CHECKS["VPR009"].severity,
                method=method.name,
                line=node.pos,
                subject=stmt,
            ))

    return findings
