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

A small backward liveness solver (``run_liveness``) rides along for the
dead-store check; it shares the CFG and the worklist discipline.

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
        self.succs: Dict[int, List[Tuple[int, EdgeLabel]]] = {}
        self.preds: Dict[int, List[Tuple[int, EdgeLabel]]] = {}
        self.entry: int = -1
        self.exit: int = -1

    def add_node(self, kind: str, stmt: Optional[object] = None) -> int:
        index = len(self.nodes)
        self.nodes.append(CFGNode(index, kind, stmt))
        self.succs[index] = []
        self.preds[index] = []
        return index

    def add_edge(self, src: int, dst: int, label: EdgeLabel = None) -> None:
        self.succs[src].append((dst, label))
        self.preds[dst].append((src, label))

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
    for src, label in frontier:
        cfg.add_edge(src, cfg.exit, label)
    return cfg


def _connect(
    cfg: CFG, frontier: List[Tuple[int, EdgeLabel]], node: int
) -> None:
    for src, label in frontier:
        cfg.add_edge(src, node, label)


def _extend(
    cfg: CFG, stmt: Stmt, frontier: List[Tuple[int, EdgeLabel]]
) -> List[Tuple[int, EdgeLabel]]:
    if isinstance(stmt, Skip):
        return frontier
    if isinstance(stmt, Seq):
        return _extend(cfg, stmt.second, _extend(cfg, stmt.first, frontier))
    if isinstance(stmt, If):
        branch = cfg.add_node("branch", stmt)
        _connect(cfg, frontier, branch)
        then_frontier = _extend(cfg, stmt.then, [(branch, True)])
        else_frontier = _extend(cfg, stmt.otherwise, [(branch, False)])
        return then_frontier + else_frontier
    if isinstance(stmt, While):
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
    in_states: Dict[int, object] = {cfg.entry: analysis.initial()}
    visits: Dict[int, int] = {}
    worklist: Deque[int] = deque((cfg.entry,))
    while worklist:
        index = worklist.popleft()
        state = in_states.get(index)
        if state is None:
            continue
        node = cfg.nodes[index]
        out = analysis.transfer(node, state)
        if out is None:
            continue
        for succ, label in cfg.succs[index]:
            if label is None:
                edge_state = out
            else:
                edge_state = analysis.transfer_edge(node, out, label)
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


def run_liveness(
    cfg: CFG,
    uses: Callable[[CFGNode], FrozenSet[str]],
    defs: Callable[[CFGNode], FrozenSet[str]],
    exit_live: FrozenSet[str],
) -> Dict[int, FrozenSet[str]]:
    """Classic backward may-liveness; returns the live-*out* set per node.

    ``uses(n)``/``defs(n)`` give the variables a node reads/writes;
    ``exit_live`` are the variables conceptually read after the method
    returns (out-parameters and every variable the postcondition
    mentions).
    """
    live_in: Dict[int, FrozenSet[str]] = {}
    live_out: Dict[int, FrozenSet[str]] = {}
    empty: FrozenSet[str] = frozenset()
    # A stack popped from the end visits nodes in reverse creation order,
    # which approximates reverse program order; a node is revisited only
    # when a successor's live-in set grows.
    worklist = list(range(len(cfg.nodes)))
    queued = set(worklist)
    while worklist:
        index = worklist.pop()
        queued.discard(index)
        node = cfg.nodes[index]
        out = empty
        for succ, _ in cfg.succs[index]:
            out |= live_in.get(succ, empty)
        if node.kind == "exit":
            out = out | exit_live
        live_out[index] = out
        new_in = uses(node) | (out - defs(node))
        if new_in != live_in.get(index):
            live_in[index] = new_in
            for pred, _ in cfg.preds[index]:
                if pred not in queued:
                    queued.add(pred)
                    worklist.append(pred)
    return live_out
