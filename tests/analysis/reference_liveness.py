"""The whole-CFG liveness solver that ``repro.analysis.cfg.live_after`` replaced.

The dead-store check (VPR004) asks about a few assignments per method, so
the analyzer searches from each of them (``live_after``) instead of
solving liveness for every node.  This solver is kept as the reference
the search must agree with (``tests/analysis/test_cfg.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet

from repro.analysis.cfg import CFG, CFGNode


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
    nodes, succs, preds = cfg.nodes, cfg.succs, cfg.preds
    while worklist:
        index = worklist.pop()
        queued.discard(index)
        node = nodes[index]
        out = empty
        for succ, _ in succs[index]:
            out |= live_in.get(succ, empty)
        if node.kind == "exit":
            out = out | exit_live
        live_out[index] = out
        new_in = uses(node) | (out - defs(node))
        if new_in != live_in.get(index):
            live_in[index] = new_in
            for pred, _ in preds[index]:
                if pred not in queued:
                    queued.add(pred)
                    worklist.append(pred)
    return live_out
