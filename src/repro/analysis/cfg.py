"""Per-method control-flow graphs and a generic forward-dataflow engine.

Trust: **advisory** — control-flow scaffolding for the linter only.

The CFG is built over the *pre-desugaring* statement forms — the core
subset (``Seq``/``If``/``Inhale``/``Exhale``/``AssertStmt``/assignments/
calls/``VarDecl``) plus the extension statements ``While`` and ``New`` —
so analyses run on the program the programmer wrote and findings cite its
source lines.  Statements are atomic nodes; ``If`` contributes a
``branch`` node whose outgoing edges are labelled ``True``/``False``;
``While`` contributes a ``loop-head`` node with a labelled exit edge and a
back edge from the body.

The dataflow engine is a standard worklist fixpoint over a join
semilattice supplied by the client analysis:

* absence of a state means *unreachable* (the bottom element) — the engine
  handles it so client lattices never model reachability themselves;
* ``transfer`` maps a node's in-state to its out-state;
* ``transfer_edge`` lets branch nodes refine the out-state per edge label
  (e.g. a constantly-false condition kills its ``True`` edge); unlabelled
  edges carry the out-state unchanged;
* after a node has been revisited ``widen_after`` times its in-state is
  widened instead of joined, which bounds iteration for infinite-height
  lattices (the permission-interval abstraction of ``checks.py``).

A backward liveness query (``live_after``) rides along for the
dead-store check.

Clients may attach per-node facts to :class:`CFGNode` objects as
attributes; a CFG lives exactly as long as one method's analysis.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, FrozenSet, List, Optional, Tuple

from ..viper.ast import If, Seq, Skip, Stmt
from ..viper.loops import While


@dataclass
class CFGNode:
    """One node of a method CFG.

    ``kind`` is one of ``entry`` / ``exit`` / ``stmt`` / ``branch`` /
    ``loop-head``; ``stmt`` is the underlying AST node (the ``If`` for a
    branch, the ``While`` for a loop head, ``None`` for entry/exit).
    """

    index: int
    kind: str
    stmt: Optional[object] = None

    @property
    def pos(self) -> Optional[int]:
        return getattr(self.stmt, "pos", None)


#: An edge label: ``None`` for unconditional edges, ``True``/``False`` for
#: the two sides of a branch or the taken/exit edges of a loop head.
EdgeLabel = Optional[bool]


class CFG:
    """A per-method control-flow graph with labelled edges."""

    def __init__(self) -> None:
        self.nodes: List[CFGNode] = []
        #: Outgoing edges, indexed by node index.
        self.succs: List[List[Tuple[int, EdgeLabel]]] = []
        self.entry: int = -1
        self.exit: int = -1
        self._preds: Optional[List[List[Tuple[int, EdgeLabel]]]] = None

    @property
    def preds(self) -> List[List[Tuple[int, EdgeLabel]]]:
        """Incoming edges, indexed by node index: derived from ``succs`` on
        first use, once the graph is built (few analyses need them)."""
        if self._preds is None:
            self._preds = [[] for _ in self.nodes]
            for src, edges in enumerate(self.succs):
                for dst, label in edges:
                    self._preds[dst].append((src, label))
        return self._preds

    def add_node(self, kind: str, stmt: Optional[object] = None) -> int:
        index = len(self.nodes)
        self.nodes.append(CFGNode(index, kind, stmt))
        self.succs.append([])
        return index

    def stmt_nodes(self) -> List[CFGNode]:
        """All nodes carrying an atomic statement, in creation order
        (creation order follows the program text)."""
        return [n for n in self.nodes if n.kind == "stmt"]


def build_cfg(body: Stmt) -> CFG:
    """Build the CFG of one method body.

    The entry node precedes the first statement; every fall-through path
    reaches the single exit node.  Unknown statement classes are treated
    as opaque atomic nodes so the builder never rejects a program that
    parsed (analysis must be total).
    """
    cfg = CFG()
    cfg.entry = cfg.add_node("entry")
    frontier: List[Tuple[int, EdgeLabel]] = [(cfg.entry, None)]
    frontier = _extend(cfg, body, frontier)
    cfg.exit = cfg.add_node("exit")
    _connect(cfg, frontier, cfg.exit)
    return cfg


def _connect(
    cfg: CFG, frontier: List[Tuple[int, EdgeLabel]], node: int
) -> None:
    succs = cfg.succs
    for src, label in frontier:
        succs[src].append((node, label))


def flatten_seq(stmt: Stmt) -> List[Stmt]:
    """The statements of a tree of ``Seq`` nodes, in program order."""
    stmts, stack = [], [stmt]
    while stack:
        stmt = stack.pop()
        if type(stmt) is Seq:
            stack.append(stmt.second)
            stack.append(stmt.first)
        else:
            stmts.append(stmt)
    return stmts


def _extend(
    cfg: CFG, stmt: Stmt, frontier: List[Tuple[int, EdgeLabel]]
) -> List[Tuple[int, EdgeLabel]]:
    kind = type(stmt)
    if kind is Seq:
        for part in flatten_seq(stmt):
            frontier = _extend(cfg, part, frontier)
        return frontier
    if kind is Skip:
        return frontier
    if kind is If:
        branch = cfg.add_node("branch", stmt)
        _connect(cfg, frontier, branch)
        then_frontier = _extend(cfg, stmt.then, [(branch, True)])
        else_frontier = _extend(cfg, stmt.otherwise, [(branch, False)])
        return then_frontier + else_frontier
    if kind is While:
        head = cfg.add_node("loop-head", stmt)
        _connect(cfg, frontier, head)
        body_frontier = _extend(cfg, stmt.body, [(head, True)])
        _connect(cfg, body_frontier, head)  # back edges
        return [(head, False)]
    # Atomic statement (including NewStmt and anything future passes add).
    node = cfg.add_node("stmt", stmt)
    _connect(cfg, frontier, node)
    return [(node, None)]


# ---------------------------------------------------------------------------
# Forward dataflow engine
# ---------------------------------------------------------------------------


class ForwardAnalysis:
    """A client analysis: a join semilattice plus transfer functions.

    Subclass and override; states may be any value.  ``None`` is reserved
    by the engine for *unreachable* and never passed to client methods.
    """

    def initial(self):
        """The state at the entry node."""
        raise NotImplementedError

    def join(self, a, b):
        """Least upper bound of two (non-None) states."""
        raise NotImplementedError

    def widen(self, old, new):
        """Widening after repeated revisits; defaults to ``join``."""
        return self.join(old, new)

    def transfer(self, node: CFGNode, state):
        """Out-state of a node given its in-state.

        Return ``None`` to mark all successors unreachable (e.g. after
        ``inhale false``)."""
        return state

    def transfer_edge(self, node: CFGNode, state, label: EdgeLabel):
        """Refine the out-state along one labelled edge (the engine passes
        the out-state unchanged along unlabelled ones).

        Return ``None`` to kill the edge (e.g. the ``True`` edge of a
        constantly-false branch)."""
        return state

    def equals(self, a, b) -> bool:
        return a == b


def run_forward(
    cfg: CFG, analysis: ForwardAnalysis, *, widen_after: int = 4
) -> Dict[int, object]:
    """Run ``analysis`` to fixpoint; returns the in-state per node index.

    Nodes absent from the result are unreachable.  ``widen_after`` bounds
    how many times a node is re-joined before widening kicks in (only
    loop heads can be revisited, via back edges).
    """
    nodes, succs = cfg.nodes, cfg.succs
    transfer, transfer_edge = analysis.transfer, analysis.transfer_edge
    in_states: Dict[int, object] = {cfg.entry: analysis.initial()}
    visits: Dict[int, int] = {}
    worklist: Deque[int] = deque((cfg.entry,))
    while worklist:
        index = worklist.popleft()
        state = in_states[index]
        if state is None:
            continue
        node = nodes[index]
        out = transfer(node, state)
        if out is None:
            continue
        for succ, label in succs[index]:
            if label is None:
                edge_state = out
            else:
                edge_state = transfer_edge(node, out, label)
            if edge_state is None:
                continue
            if succ not in in_states:
                in_states[succ] = edge_state
                worklist.append(succ)
                continue
            current = in_states[succ]
            visits[succ] = visits.get(succ, 0) + 1
            if visits[succ] > widen_after:
                joined = analysis.widen(current, edge_state)
            else:
                joined = analysis.join(current, edge_state)
            if not analysis.equals(joined, current):
                in_states[succ] = joined
                worklist.append(succ)
    return in_states


# ---------------------------------------------------------------------------
# Backward liveness (for the dead-store check)
# ---------------------------------------------------------------------------


def live_after(
    cfg: CFG,
    index: int,
    name: str,
    uses: Callable[[CFGNode], FrozenSet[str]],
    defs: Callable[[CFGNode], FrozenSet[str]],
    exit_live: FrozenSet[str],
) -> bool:
    """Classic backward may-liveness of one variable after one node.

    ``name`` is live after node ``index`` iff some path from one of its
    successors reads it before writing it again, or reaches the exit
    with ``name`` in ``exit_live`` (the variables conceptually read after
    the method returns: out-parameters and everything the postcondition
    mentions).  ``uses(n)``/``defs(n)`` give the variables a node
    reads/writes; a node's reads happen before its writes.  A search
    from the node answers this for the few assignments the dead-store
    check asks about, without solving liveness for the whole CFG.
    """
    if index == cfg.exit:
        return name in exit_live
    seen = set()
    stack = [succ for succ, _ in cfg.succs[index]]
    while stack:
        succ = stack.pop()
        if succ in seen:
            continue
        seen.add(succ)
        node = cfg.nodes[succ]
        if name in uses(node):
            return True
        if name in defs(node):
            continue
        if succ == cfg.exit and name in exit_live:
            return True
        stack.extend(nxt for nxt, _ in cfg.succs[succ])
    return False
