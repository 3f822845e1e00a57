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

import math
from dataclasses import dataclass, field as dc_field
from operator import attrgetter, itemgetter
from fractions import Fraction
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

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
from .cfg import CFG, CFGNode, ForwardAnalysis, build_cfg, flatten_seq, live_after, run_forward


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


def _has_old(node) -> bool:
    """Whether an expression or assertion contains ``old()``."""
    kind = type(node)
    if kind is OldExpr:
        return True
    if kind is BinOp or kind is SepConj:
        return _has_old(node.left) or _has_old(node.right)
    if kind is FieldAcc:
        return _has_old(node.receiver)
    if kind is UnOp:
        return _has_old(node.operand)
    if kind is AExpr:
        return _has_old(node.expr)
    if kind is Acc:
        return _has_old(node.receiver) or _has_old(node.perm)
    if kind is Implies:
        return _has_old(node.cond) or _has_old(node.body)
    if kind is CondExp or kind is CondAssert:
        return _has_old(node.cond) or _has_old(node.then) or _has_old(node.otherwise)
    return False


def _literal_false(assertion: Assertion) -> bool:
    """Literally-false at the top level (through separating conjunction)."""
    kind = type(assertion)
    if kind is AExpr:
        return type(assertion.expr) is BoolLit and not assertion.expr.value
    if kind is SepConj:
        return _literal_false(assertion.left) or _literal_false(assertion.right)
    return False


def _is_literal_expr(expr: Expr) -> bool:
    return isinstance(expr, (IntLit, BoolLit, NullLit, PermLit))


# ---------------------------------------------------------------------------
# Per-node facts (shared by the dataflow clients)
# ---------------------------------------------------------------------------


#: The statements that carry an assertion.
_SPEC_STMTS = (Inhale, Exhale, AssertStmt)


class _BodyFacts(NamedTuple):
    """What the method-level checks need of a whole body."""

    reads: Set[str]  # every variable a node reads
    defs: Set[str]  # every variable a node writes or declares
    writes: Set[str]  # the same, declarations excluded (VPR005)
    fields: Set[str]  # every field a node mentions
    declarations: List[VarDecl]
    local_assigns: List[CFGNode]
    trivial_asserts: List[CFGNode]  # ``assert true`` (VPR009)
    cuts: bool  # a literally-false statement or a constant condition
    may_diverge: bool  # an assert or exhale folds to false, or a loop condition to true (VPR010)
    scale: int  # the least common multiple of the plans' scales, or 0


def _annotate(cfg: CFG, fields: Tuple[str, ...]) -> _BodyFacts:
    """Attach each node's facts as attributes, once, right after
    :func:`build_cfg`.  The worklist engine calls the transfer functions
    once per fixpoint *visit* (several times per node on loops), so they
    read these instead of walking the statement again:

    * ``reads`` — every variable the node reads (liveness uses);
    * ``checked_reads`` — the reads the definite-assignment check reports
      on: all but an ``inhale``'s, since inhaling a fact about a havoced
      variable is how the subset expresses a nondeterministic choice;
    * ``invariant_reads`` — a loop head's invariant's reads;
    * ``fields`` — the fields the statement mentions (``old()`` included);
    * ``heap`` — the fields a branch condition, assignment or call reads
      from the current heap;
    * ``plan`` — a specification statement's or loop head's assertion, as
      the permission flow reads it (:func:`_plan`);
    * ``defs`` — the variables the node writes or declares;
    * ``kills_flow`` — the node makes all successors unreachable;
    * ``constant`` — a branch or loop head's literal condition, else None;
    * ``perm_identity`` — its permission transfer is provably the identity.

    Without a report sink the permission transfer only *changes* state on
    ``acc`` conjuncts, allocation, calls, assignments and loop heads; the
    ubiquitous pure assertions (``assert x.f > 0``) would walk the whole
    assertion just to return the input.  A node that mentions a field
    never takes that shortcut: its transfer also collects the node's
    findings (see :class:`_PermissionFlow`).

    The same pass gathers the body's :class:`_BodyFacts`, in node
    creation order, which is program-text order.
    """
    body_reads: Set[str] = set()
    body_defs: Set[str] = set()
    body_writes: Set[str] = set()
    body_fields: Set[str] = set()
    declarations: List[VarDecl] = []
    local_assigns: List[CFGNode] = []
    trivial_asserts: List[CFGNode] = []
    cuts = may_diverge = False
    scale = 0
    for node in cfg.nodes:
        stmt = node.stmt
        node.constant = node.plan = None
        node.kills_flow = False
        cls = type(stmt)
        if stmt is None or cls is VarDecl or cls is Skip:  # nothing to walk
            node.reads = node.checked_reads = node.fields = _EMPTY
            node.heap = ()
            node.perm_identity = True
            node.defs = _EMPTY
            if cls is VarDecl:
                node.defs = frozenset((stmt.name,))
                body_defs |= node.defs
                declarations.append(stmt)
            continue
        reads: Set[str] = set()
        mentioned: Set[str] = set()
        heap: List[str] = []
        defs = _EMPTY
        # Heap reads at branches only matter with a report sink.
        node.perm_identity = node.kind == "branch"
        if node.kind in ("branch", "loop-head"):
            if node.kind == "loop-head":
                node.plan = _plan(stmt.invariant, reads, mentioned)
                node.invariant_reads = frozenset(reads)
                scale = _lcm(scale, node.plan[1])
                may_diverge = may_diverge or _fold_expr(stmt.cond) is True
            _expr_facts(stmt.cond, reads, mentioned, heap)
            if type(stmt.cond) is BoolLit:
                node.constant = stmt.cond.value
                cuts = True
        elif cls is LocalAssign:
            _expr_facts(stmt.rhs, reads, mentioned, heap)
            defs = frozenset((stmt.target,))
            local_assigns.append(node)
        elif cls is FieldAssign:
            mentioned.add(stmt.field)
            _expr_facts(stmt.receiver, reads, mentioned, heap)
            _expr_facts(stmt.rhs, reads, mentioned, heap)
        elif cls is MethodCall:
            for arg in stmt.args:
                _expr_facts(arg, reads, mentioned, heap)
            defs = frozenset(stmt.targets)
        elif cls in _SPEC_STMTS:
            node.plan = _plan(stmt.assertion, reads, mentioned)
            scale = _lcm(scale, node.plan[1])
            node.kills_flow = _literal_false(stmt.assertion)
            node.perm_identity = not node.kills_flow and not node.plan[1]
            cuts = cuts or node.kills_flow
            if not may_diverge and cls is not Inhale:
                may_diverge = _folds_false(stmt.assertion)
            assertion = stmt.assertion
            if (
                cls is AssertStmt
                and type(assertion) is AExpr
                and type(assertion.expr) is BoolLit
                and assertion.expr.value
            ):
                trivial_asserts.append(node)
        elif cls is NewStmt:
            mentioned.update(fields if stmt.all_fields else stmt.fields)
            defs = frozenset((stmt.target,))
        node.reads = reads
        node.checked_reads = _EMPTY if cls is Inhale else reads
        node.fields = mentioned
        node.heap = heap
        node.defs = defs
        body_reads |= reads
        body_defs |= defs
        body_fields |= mentioned
        body_writes |= defs
    return _BodyFacts(
        body_reads, body_defs, body_writes, body_fields, declarations,
        local_assigns, trivial_asserts, cuts, may_diverge, scale,
    )


_EMPTY: FrozenSet[str] = frozenset()
_READS_OF, _DEFS_OF = attrgetter("reads"), attrgetter("defs")
_LITERALS = frozenset({IntLit, BoolLit, NullLit, PermLit})


def _expr_facts(
    expr: Expr, reads: Set[str], fields: Set[str], heap: Optional[List[str]]
) -> None:
    """Add the variables ``expr`` reads and the fields it mentions, and
    append to ``heap`` each field it reads from the current heap
    (``old()`` interiors read the pre-state, which VPR008 does not model)."""
    kind = type(expr)
    if kind is Var:
        reads.add(expr.name)
    elif kind is BinOp:
        # Most operands are variables or literals: skip the call for those.
        for operand in (expr.left, expr.right):
            operand_kind = type(operand)
            if operand_kind is Var:
                reads.add(operand.name)
            elif operand_kind not in _LITERALS:
                _expr_facts(operand, reads, fields, heap)
    elif kind is FieldAcc:
        fields.add(expr.field)
        if heap is not None:
            heap.append(expr.field)
        _expr_facts(expr.receiver, reads, fields, heap)
    elif kind is UnOp:
        _expr_facts(expr.operand, reads, fields, heap)
    elif kind is CondExp:
        _expr_facts(expr.cond, reads, fields, heap)
        _expr_facts(expr.then, reads, fields, heap)
        _expr_facts(expr.otherwise, reads, fields, heap)
    elif kind is OldExpr:
        _expr_facts(expr.expr, reads, fields, None)


#: The tags of a plan (see :func:`_plan`).
_READS, _SEQ, _IMPLIES, _COND, _ACC = range(5)


def _plan(assertion: Assertion, reads: Set[str], fields: Set[str]) -> tuple:
    """Add an assertion's reads and fields, and return its *plan*: the
    assertion as the permission flow (VPR008) walks it, with each part's
    current-heap field reads collected once.  A plan is a tuple
    ``(tag, scale, ...)``; ``scale`` is the least common multiple of the
    denominators of the literal ``acc`` amounts inside it (1 for a
    non-literal amount), or 0 when it holds no ``acc``:

    * ``(_READS, 0, heap)`` — a pure assertion;
    * ``(_SEQ, scale, parts)`` — separating conjuncts, left to right;
    * ``(_IMPLIES, scale, heap, body)`` and
      ``(_COND, scale, heap, then, otherwise)`` — ``heap`` is the guard's;
    * ``(_ACC, scale, heap, field, amount, receiver, acc)`` — ``amount``
      is a literal's ``(numerator, denominator)`` or None, ``receiver`` a
      variable's name or None.
    """
    kind = type(assertion)
    if kind is SepConj:
        parts, stack, scale = [], [assertion], 0
        while stack:
            node = stack.pop()
            if type(node) is SepConj:
                stack.append(node.right)
                stack.append(node.left)
            else:
                part = _plan(node, reads, fields)
                parts.append(part)
                scale = _lcm(scale, part[1])
        return (_SEQ, scale, parts)
    heap: List[str] = []
    if kind is AExpr:
        _expr_facts(assertion.expr, reads, fields, heap)
        return (_READS, 0, heap)
    if kind is Implies:
        _expr_facts(assertion.cond, reads, fields, heap)
        body = _plan(assertion.body, reads, fields)
        return (_IMPLIES, body[1], heap, body)
    if kind is CondAssert:
        _expr_facts(assertion.cond, reads, fields, heap)
        then = _plan(assertion.then, reads, fields)
        other = _plan(assertion.otherwise, reads, fields)
        return (_COND, _lcm(then[1], other[1]), heap, then, other)
    if kind is Acc:
        fields.add(assertion.field)
        _expr_facts(assertion.receiver, reads, fields, heap)
        _expr_facts(assertion.perm, reads, fields, heap)
        amount = None
        if isinstance(assertion.perm, PermLit):
            amount = assertion.perm.amount.as_integer_ratio()
        receiver = assertion.receiver.name if isinstance(assertion.receiver, Var) else None
        return (_ACC, amount[1] if amount else 1, heap, assertion.field, amount, receiver,
                assertion)
    return (_READS, 0, heap)


def _lcm(a: int, b: int) -> int:
    """The least common multiple of two scales, 0 standing for none."""
    if not a:
        return b
    if not b or a == b:
        return a
    return math.lcm(a, b)


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

    Join is intersection (assigned on *every* path).  The transfer also
    records the node's checked reads missing from its in-state.  In-states
    only shrink as the fixpoint proceeds, so the latest visit, which runs
    on the fixpoint's in-state, misses a superset of what earlier visits
    missed: ``unassigned`` keeps its set."""

    def __init__(self, entry_assigned: FrozenSet[str]):
        self._entry = entry_assigned
        self.unassigned: Dict[int, FrozenSet[str]] = {}

    def initial(self):
        return self._entry

    def join(self, a, b):
        return a & b

    def transfer(self, node: CFGNode, state):
        reads = node.checked_reads
        if reads and not reads <= state:
            self.unassigned[node.index] = reads - state
        if node.kills_flow:
            return None
        stmt = node.stmt
        cls = type(stmt)
        if cls is VarDecl:
            return state - node.defs
        if cls is Inhale:
            return state | node.reads
        if node.kind == "loop-head":
            # The desugaring inhales the invariant at the head.
            return state | node.invariant_reads
        return state if node.defs <= state else state | node.defs


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
    kind = type(expr)
    if kind is BinOp:
        return _fold_binop(expr)
    if kind is IntLit or kind is BoolLit:
        return expr.value
    if kind is PermLit:
        return expr.amount
    if kind is NullLit:
        return _NULL
    if kind is UnOp:
        value = _fold_expr(expr.operand)
        if expr.op is UnOpKind.NOT and value in (True, False):
            return not value
        if expr.op is UnOpKind.NEG and value is not None and value is not _NULL \
                and not isinstance(value, bool):
            return -value
        return None
    if kind is CondExp:
        cond = _fold_expr(expr.cond)
        if cond in (True, False):
            return _fold_expr(expr.then if cond else expr.otherwise)
        return None
    return None


def _fold_binop(expr: BinOp):
    left = _fold_expr(expr.left)
    if left is None:
        return None  # whatever the right operand folds to
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


def _divergence_kind(stmt: Stmt) -> str:
    if isinstance(stmt, (AssertStmt, Exhale)):
        return "assertion folds to false"
    if isinstance(stmt, While):
        return "loop condition folds to true"
    return "every arm of the conditional diverges"


def _check_divergence(
    body: Stmt, method: MethodDecl, findings: List[Finding]
) -> bool:
    """Walk one statement level; report the first statement shadowed by a
    folded-diverging predecessor, mirroring VPR003's first-of-region rule.
    Nothing inside a dead region is visited — no reports inside dead
    code, folded or literal.

    Returns whether the level provably has no fault-free continuation: a
    closed ``assert``/``exhale`` folds to false, a loop's closed condition
    folds to true, or a conditional diverges in the arm its condition
    folds to (in both arms when it does not fold).  A conditional's arms
    are walked once, for their reports and their divergence alike."""
    stmts = flatten_seq(body)
    for index, stmt in enumerate(stmts):
        kind = type(stmt)
        if kind is If:
            then = _check_divergence(stmt.then, method, findings)
            otherwise = _check_divergence(stmt.otherwise, method, findings)
            cond = _fold_expr(stmt.cond)
            if cond is True:
                diverges = then
            elif cond is False:
                diverges = otherwise
            else:
                diverges = then and otherwise
        elif kind is While:
            _check_divergence(stmt.body, method, findings)
            diverges = _fold_expr(stmt.cond) is True
        elif kind is AssertStmt or kind is Exhale:
            diverges = _folds_false(stmt.assertion)
        else:
            diverges = False
        if not diverges:
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
        return True
    return False


# ---------------------------------------------------------------------------
# VPR008: the permission-flow abstraction
# ---------------------------------------------------------------------------


class _PermState(tuple):
    """``(hi, lo)``, built as ``_PermState((hi, lo))``.  hi: per-field upper
    bound on *total* permission, ``None`` meaning unbounded; lo:
    per-(var, field) lower bound on the permission held to that location,
    with only positive entries.

    Amounts are integers counting units of 1/``scale`` of a full
    permission, where a method's scale is the least common multiple of
    the denominators of its literal ``acc`` amounts: every amount the
    analysis computes is a sum, difference, minimum or maximum of those
    literals and 0 or 1, so integers represent them exactly and keep the
    analyze stage inside its pipeline budget (docs/ANALYSIS.md
    § Performance).  The dicts are never changed in place: a transfer
    that changes one builds a new state.
    """

    __slots__ = ()
    hi = property(itemgetter(0))  # Dict[str, Optional[int]]
    lo = property(itemgetter(1))  # Dict[Tuple[str, str], int]


class _PermissionFlow(_SemanticAnalysis):
    """The permission flow of one method, in units of 1/``scale``.

    ``entry`` is the state after inhaling the precondition, computed by
    the caller with :meth:`assertion` (it also reports on the
    precondition).  The transfer of a node that mentions a field also
    collects that node's findings; ``reports`` keeps those of its latest
    visit.  The engine re-queues a node whenever its in-state changes, so
    the latest visit runs on the fixpoint's in-state, and ``reports``
    holds exactly what a reporting pass over the final in-states would
    find."""

    def __init__(self, fields: Tuple[str, ...], method: MethodDecl, scale: int):
        self._fields = fields
        self._method = method
        self._scale = scale
        self.entry = _PermState((dict.fromkeys(fields, 0), {}))
        self.reports: Dict[int, List[Finding]] = {}

    def _top(self) -> _PermState:
        """The state that knows nothing: every bound unknown."""
        return _PermState((dict.fromkeys(self._fields), {}))

    # -- lattice ----------------------------------------------------------

    def initial(self):
        return self.entry

    def join(self, a: _PermState, b: _PermState):
        return _perm_join(a, b)

    def widen(self, old: _PermState, new: _PermState):
        """Degrade any growing bound straight to TOP so loops converge."""
        (ohi, olo), (nhi, nlo) = old, new
        hi: Dict[str, Optional[int]] = {}
        for f in ohi.keys() | nhi.keys():
            x, y = ohi.get(f, 0), nhi.get(f, 0)
            hi[f] = x if (x is not None and y is not None and y <= x) else None
        lo = {key: value for key, value in olo.items() if nlo.get(key, 0) >= value}
        return _PermState((hi, lo))

    # -- transfer ---------------------------------------------------------

    def transfer(self, node: CFGNode, state: _PermState):
        if node.fields:  # every finding names a field the node mentions
            report = self.reports[node.index] = []
            return self._node(node, state, report)
        if node.perm_identity:
            return state
        return self._node(node, state, None)

    def _node(
        self, node: CFGNode, state: _PermState, report: Optional[List[Finding]]
    ) -> Optional[_PermState]:
        """A node's transfer; with a ``report`` list it also appends the
        node's findings."""
        if node.kills_flow:
            return None
        stmt = node.stmt
        cls = type(stmt)
        if node.kind == "branch":
            self._reads(state, node.heap, report, node)
            return state
        if node.kind == "loop-head":
            # entry/preservation exhale of the invariant, checked against the
            # joined in-state (sound: the entry path's bound is ≤ the join) …
            after = self.assertion(state, node.plan, "exhale", report, node)
            # … then the head havocs the frame and re-inhales the invariant.
            inhaled = self.assertion(self._top(), node.plan, "inhale", report, node)
            if after is None or inhaled is None:
                return None
            return inhaled
        if cls is LocalAssign:
            self._reads(state, node.heap, report, node)
            for key in state.lo:
                if key[0] == stmt.target:
                    break
            else:
                return state
            lo = {key: value for key, value in state.lo.items() if key[0] != stmt.target}
            return _PermState((state.hi, lo))
        if cls is FieldAssign:
            self._reads(state, node.heap, report, node)
            hi = state.hi.get(stmt.field, 0)
            if report is not None and hi is not None and hi < self._scale:
                report.append(self._finding(
                    f"write to .{stmt.field} requires full permission, but at "
                    f"most {self._amount(hi)} can be held here",
                    node, stmt,
                ))
            return state
        if cls is MethodCall:
            self._reads(state, node.heap, report, node)
            # The callee may exhale and inhale arbitrary permission.
            return self._top()
        if cls is NewStmt:
            allocated = self._fields if stmt.all_fields else stmt.fields
            hi = dict(state.hi)
            lo = {key: value for key, value in state.lo.items() if key[0] != stmt.target}
            for f in allocated:
                bound = hi.get(f, 0)
                hi[f] = None if bound is None else bound + self._scale
                lo[(stmt.target, f)] = self._scale
            return _PermState((hi, lo))
        if cls is Inhale:
            return self.assertion(state, node.plan, "inhale", report, node)
        if cls is Exhale:
            return self.assertion(state, node.plan, "exhale", report, node)
        if cls is AssertStmt:
            return self.assertion(state, node.plan, "assert", report, node)
        return state

    def assertion(
        self,
        state: Optional[_PermState],
        plan: tuple,
        mode: str,
        report: Optional[List[Finding]],
        where,
        flag_inconsistency: bool = True,
    ) -> Optional[_PermState]:
        """Process an assertion's plan left-to-right in ``inhale``/
        ``exhale``/``assert`` mode, appending findings to ``report``.
        Returns ``None`` when the state is provably inconsistent
        afterwards.

        Heap *reads* are checked against the state at the start of an
        exhale or assert: per the exhale semantics (``remcheck(a, σ, σ)``),
        pure sub-expressions are evaluated there, so ``exhale acc(x.f) &&
        x.f == r`` is well-defined even though the permission is removed
        by the first conjunct.  During inhale the running state is used
        instead (permissions only grow)."""
        if state is None:
            return None
        return self._walk(state, plan, mode, report, state, where, flag_inconsistency)

    def _walk(self, state, plan, mode, emit, start, where, flag):
        """:meth:`assertion` on one plan.  ``emit`` is None under a guard
        (``==>``/``?:``), where nothing is reported because the guard may
        be false; ``start`` is the exhale's or assert's start state."""
        tag = plan[0]
        read_state = state if mode == "inhale" else start
        if tag is _READS:
            if emit is not None:
                self._reads(read_state, plan[2], emit, where)
            return state
        if tag is _SEQ:
            for part in plan[2]:
                if part[0] is _READS:  # inlined: pure conjuncts are common
                    if emit is not None:
                        self._reads(state if mode == "inhale" else start, part[2], emit, where)
                    continue
                state = self._walk(state, part, mode, emit, start, where, flag)
                if state is None:
                    return None
            return state
        if tag is _IMPLIES:
            self._reads(read_state, plan[2], emit, where)
            taken = self._walk(state, plan[3], mode, None, start, where, flag)
            if taken is None:
                return state  # the guard is provably false in consistent states
            return _perm_join(state, taken)
        if tag is _COND:
            self._reads(read_state, plan[2], emit, where)
            then = self._walk(state, plan[3], mode, None, start, where, flag)
            other = self._walk(state, plan[4], mode, None, start, where, flag)
            if then is None:
                return other
            if other is None:
                return then
            return _perm_join(then, other)
        _, _, heap, f, amount, receiver, acc = plan
        if heap:
            self._reads(read_state, heap, emit, where)
        scale = self._scale
        units = None if amount is None else amount[0] * (scale // amount[1])
        hi, lo = state
        bound = hi.get(f, 0)
        if mode == "inhale":
            hi = dict(hi)
            hi[f] = None if (bound is None or units is None) else bound + units
            if receiver is not None and units is not None:
                key = (receiver, f)
                held = lo.get(key, 0) + units
                if held > scale:
                    if emit is not None and flag:
                        emit.append(self._finding(
                            f"inhale pushes the permission to "
                            f"{receiver}.{f} to {self._amount(held)} > 1 — the "
                            f"state is guaranteed inconsistent",
                            where, acc,
                        ))
                    return None
                lo = _with_held(lo, key, held)
            return _PermState((hi, lo))
        # exhale / assert both require the permission to be present.
        if units is not None and units > 0 and bound is not None and bound < units:
            if emit is not None:
                verb = "exhale" if mode == "exhale" else "assert"
                emit.append(self._finding(
                    f"{verb} of acc(..{f}, {self._amount(units)}) but at most "
                    f"{self._amount(bound)} permission to {f} can be held here",
                    where, acc,
                ))
        if mode == "exhale":
            if units is not None:
                hi = dict(hi)
                hi[f] = None if bound is None else max(bound - units, 0)
            kept = {}
            for key, held in lo.items():
                if key[1] != f:
                    kept[key] = held
                elif receiver is not None and units is not None and key[0] == receiver:
                    if held > units:
                        kept[key] = held - units
                # else: an alias may have lost this permission
            return _PermState((hi, kept))
        # assert: the state is unchanged, but on success we may strengthen
        # the location's lower bound.
        if receiver is not None and units is not None:
            key = (receiver, f)
            lo = _with_held(lo, key, max(lo.get(key, 0), units))
        return _PermState((hi, lo))

    def _reads(self, state, heap, report, where) -> None:
        """Report each field read from the heap with provably no permission."""
        if report is None or not heap:
            return
        hi = state[0]
        for f in heap:
            if hi.get(f, 0) == 0:  # provably zero; None is unbounded
                report.append(self._finding(
                    f"read of .{f}, but no permission to {f} can be held here",
                    where, None,
                ))

    def _finding(self, message: str, where, subject) -> Finding:
        """A VPR008 finding at the line of ``where``, a node or the method."""
        return Finding(
            "VPR008", message, CHECKS["VPR008"].severity,
            method=self._method.name, line=where.pos, subject=subject,
        )

    def _amount(self, units: int) -> Fraction:
        return Fraction(units, self._scale)


def _with_held(lo, key, held: int):
    """``lo`` with ``key`` holding ``held`` (dropped unless positive)."""
    lo = dict(lo)
    if held > 0:
        lo[key] = held
    else:
        lo.pop(key, None)
    return lo


def _perm_join(a: _PermState, b: _PermState) -> _PermState:
    if a is b:
        return a
    (ahi, alo), (bhi, blo) = a, b
    hi: Dict[str, Optional[int]] = {}
    for f in ahi.keys() | bhi.keys():
        x, y = ahi.get(f, 0), bhi.get(f, 0)
        hi[f] = None if (x is None or y is None) else max(x, y)
    # A location missing on one side has lower bound 0 there.
    lo = {key: min(held, blo[key]) for key, held in alo.items() if key in blo}
    return _PermState((hi, lo))


def _check_permissions(
    method: MethodDecl,
    fields: Tuple[str, ...],
    cfg: CFG,
    pre: tuple,
    post: tuple,
    body_scale: int,
) -> List[Finding]:
    """VPR008 over one method: the precondition's inhale, the fixpoint
    (which collects the body's findings), then the postcondition's
    exhale at the exit.  ``pre`` and ``post`` are the specification's
    plans; ``body_scale`` is the body's (:func:`_annotate`)."""
    scale = _lcm(_lcm(pre[1], post[1]), body_scale) or 1
    flow = _PermissionFlow(fields, method, scale)
    findings: List[Finding] = []
    # A contradictory precondition (lo > 1) is *not* reported: it makes the
    # method vacuous (never callable), which the corpus uses deliberately —
    # the body is simply skipped, like code behind `inhale false`.
    flow.entry = flow.assertion(
        flow.entry, pre, "inhale", findings, method, flag_inconsistency=False
    )
    if flow.entry is None:
        return findings
    perm_in = run_forward(cfg, flow)
    for index in sorted(flow.reports):
        findings.extend(flow.reports[index])
    if cfg.exit in perm_in:
        flow.assertion(perm_in[cfg.exit], post, "exhale", findings, method)
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
    if _has_old(method.pre):
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
    pre_plan = _plan(method.pre, spec_reads, method_fields)
    post_plan = _plan(method.post, post_reads, method_fields)
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
    body = _annotate(cfg, fields)
    body_reads = body.reads
    method_fields |= body.fields
    mentioned_fields |= method_fields

    # ---- VPR001/VPR002: definite assignment ------------------------------
    # Only reads of locals and out-parameters in the body, and
    # out-parameters in the postcondition, are reported.  With none of
    # them and no cut, there is nothing to solve: build_cfg links every
    # node from the entry, so every node is reachable (VPR004 asks).
    return_names = frozenset(method.return_names)
    declared_locals = {d.name for d in body.declarations}
    if body.cuts or return_names & post_reads or not body_reads.isdisjoint(
        return_names | declared_locals
    ):
        assignment = _DefiniteAssignment(frozenset(method.arg_names))
        assigned_in = run_forward(cfg, assignment)
        reachable = assigned_in  # the nodes the flow reaches
        unassigned = assignment.unassigned
    else:
        assigned_in, unassigned = {}, {}
        reachable = range(len(cfg.nodes))
    for index in sorted(unassigned):
        node = cfg.nodes[index]
        for name in sorted(unassigned[index]):
            if _synthesized(name):
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
    # build_cfg links every node from the entry, so only a cut can leave
    # one unreachable.
    if body.cuts:
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
    if body.may_diverge:
        _check_divergence(method.body, method, findings)

    # ---- VPR004: dead stores --------------------------------------------
    candidates = [
        node for node in body.local_assigns
        # never read at all → VPR005 reports the declaration
        if node.stmt.target in body_reads
        and node.index in reachable
        and not _is_literal_expr(node.stmt.rhs)
        and not _synthesized(node.stmt.target)
    ]
    exit_live = return_names | post_reads
    for node in candidates:
        stmt = node.stmt
        if live_after(cfg, node.index, stmt.target, _READS_OF, _DEFS_OF, exit_live):
            continue
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
    for decl in body.declarations:
        if _synthesized(decl.name):
            continue
        if decl.name in body_reads or decl.name in body.writes:
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
    used = spec_reads | body_reads | body.defs
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
        findings.extend(
            _check_permissions(method, fields, cfg, pre_plan, post_plan, body.scale)
        )

    # ---- VPR009(b): trivially-true asserts ------------------------------
    for node in body.trivial_asserts:
        findings.append(Finding(
            "VPR009",
            f"method {method.name!r}: `assert true` checks nothing",
            CHECKS["VPR009"].severity,
            method=method.name,
            line=node.pos,
            subject=node.stmt,
        ))

    return findings
