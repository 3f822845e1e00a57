"""Unit tests for the CFG builder and the dataflow engines."""

import pathlib
from operator import attrgetter

from repro.analysis import CFG, ForwardAnalysis, build_cfg, live_after, run_forward
from repro.analysis.checks import _annotate
from repro.fuzz.generate import generate_program
from repro.harness import full_corpus
from repro.viper import parse_program

from tests.analysis.reference_liveness import run_liveness


def _body(source: str):
    return parse_program(source).methods[0].body


_PROGRAM = """\
field f: Int

method m(x: Ref, flag: Bool) returns (res: Int)
  requires acc(x.f, write)
  ensures acc(x.f, write)
{
  %s
}
"""


def test_straight_line_cfg_shape():
    cfg = build_cfg(_body(_PROGRAM % "res := 1\n  res := res + 1"))
    kinds = [node.kind for node in cfg.nodes]
    assert kinds.count("entry") == 1
    assert kinds.count("exit") == 1
    assert kinds.count("stmt") == 2
    # Linear chain: entry → s1 → s2 → exit.
    assert len(cfg.succs[cfg.entry]) == 1
    assert cfg.preds[cfg.exit]


def test_if_contributes_labelled_branch_edges():
    cfg = build_cfg(_body(_PROGRAM % (
        "if (flag) {\n    res := 1\n  } else {\n    res := 2\n  }"
    )))
    branches = [n for n in cfg.nodes if n.kind == "branch"]
    assert len(branches) == 1
    labels = sorted(label for _, label in cfg.succs[branches[0].index])
    assert labels == [False, True]


def test_while_contributes_loop_head_with_back_edge():
    cfg = build_cfg(_body(_PROGRAM % (
        "res := 0\n  while (res < 2)\n    invariant res >= 0\n"
        "  {\n    res := res + 1\n  }"
    )))
    heads = [n for n in cfg.nodes if n.kind == "loop-head"]
    assert len(heads) == 1
    head = heads[0].index
    # The head has a predecessor inside the body (the back edge).
    body_preds = [src for src, _ in cfg.preds[head] if src != cfg.entry]
    assert body_preds
    # The exit edge is the False label.
    assert (head, False) in {
        (src, label) for src, label in cfg.preds[cfg.exit]
    } or any(label is False for _, label in cfg.succs[head])


def test_nodes_carry_source_positions():
    cfg = build_cfg(_body(_PROGRAM % "res := 1"))
    stmt_nodes = cfg.stmt_nodes()
    assert stmt_nodes and all(isinstance(n.pos, int) for n in stmt_nodes)


class _ReachingCount(ForwardAnalysis):
    """Counts statements along the path (join = max) — exercises widening."""

    def initial(self):
        return 0

    def join(self, a, b):
        return max(a, b)

    def widen(self, old, new):
        return 10_000  # top

    def transfer(self, node, state):
        return state + 1 if node.kind == "stmt" else state


def test_run_forward_reaches_fixpoint_on_loops():
    cfg = build_cfg(_body(_PROGRAM % (
        "res := 0\n  while (res < 2)\n    invariant res >= 0\n"
        "  {\n    res := res + 1\n  }"
    )))
    states = run_forward(cfg, _ReachingCount(), widen_after=2)
    assert cfg.exit in states  # the exit is reachable
    # Widening must have been applied at the loop head.
    head = next(n.index for n in cfg.nodes if n.kind == "loop-head")
    assert states[head] == 10_000


class _DeadEdge(ForwardAnalysis):
    def initial(self):
        return "live"

    def join(self, a, b):
        return "live"

    def transfer_edge(self, node, state, label):
        if label is True:
            return None  # kill the then-branch
        return state


def test_transfer_edge_none_marks_successors_unreachable():
    cfg = build_cfg(_body(_PROGRAM % (
        "if (flag) {\n    res := 1\n  } else {\n    res := 2\n  }"
    )))
    states = run_forward(cfg, _DeadEdge())
    then_assign = [
        n.index for n in cfg.stmt_nodes()
        if getattr(n.stmt, "rhs", None) is not None
    ]
    # Exactly one of the two assignments (the then-side) is unreachable.
    reachable = [i for i in then_assign if i in states]
    assert len(reachable) == 1


def test_liveness_exit_set_keeps_out_params_live():
    cfg = build_cfg(_body(_PROGRAM % "res := 1\n  res := 2"))

    def uses(node):
        return frozenset()

    def defs(node):
        target = getattr(node.stmt, "target", None)
        return frozenset({target}) if isinstance(target, str) else frozenset()

    stmt_nodes = cfg.stmt_nodes()
    # `res` is live after the second assignment (the exit reads it) but dead
    # after the first (the second assignment kills it).
    exit_live = frozenset({"res"})
    assert live_after(cfg, stmt_nodes[1].index, "res", uses, defs, exit_live)
    assert not live_after(cfg, stmt_nodes[0].index, "res", uses, defs, exit_live)


def _annotated_method_cfgs():
    """Every method body of the benchmark corpus, the seeded-defect corpus
    and 50 generated programs (61 loops among them), annotated."""
    sources = [f.source for files in full_corpus().values() for f in files]
    corpus_dir = pathlib.Path(__file__).parent / "corpus"
    sources += [path.read_text() for path in sorted(corpus_dir.glob("*.vpr"))]
    sources += [generate_program(seed).source for seed in range(50)]
    for source in sources:
        program = parse_program(source)
        fields = tuple(decl.name for decl in program.fields)
        for method in program.methods:
            if method.body is not None:
                cfg = build_cfg(method.body)
                _annotate(cfg, fields)
                yield method, cfg


def test_live_after_agrees_with_the_whole_cfg_solver():
    uses, defs = attrgetter("reads"), attrgetter("defs")
    answers = {True: 0, False: 0}
    for method, cfg in _annotated_method_cfgs():
        exit_live = frozenset(method.return_names)
        live_out = run_liveness(cfg, uses, defs, exit_live)
        names = exit_live.union(*(node.reads | node.defs for node in cfg.nodes))
        for node in cfg.nodes:
            for name in names:
                live = live_after(cfg, node.index, name, uses, defs, exit_live)
                assert live == (name in live_out[node.index]), (method.name, node, name)
                answers[live] += 1
    assert min(answers.values()) > 1000, answers
