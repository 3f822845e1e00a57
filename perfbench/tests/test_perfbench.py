"""Self-tests of the benchmark: seeded inputs and schedules, known
answers, the percentile helper, layer accounting, and clean-up of the
service harness.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import service  # noqa: E402


@pytest.mark.parametrize(
    "values, p, expected",
    [
        ([15, 20, 35, 40, 50], 5, 15),
        ([15, 20, 35, 40, 50], 30, 20),
        ([15, 20, 35, 40, 50], 40, 20),
        ([15, 20, 35, 40, 50], 50, 35),
        ([15, 20, 35, 40, 50], 100, 50),
        ([3, 6, 7, 8, 8, 10, 13, 15, 16, 20], 25, 7),
        ([3, 6, 7, 8, 8, 10, 13, 15, 16, 20], 50, 8),
        ([3, 6, 7, 8, 8, 10, 13, 15, 16, 20], 75, 15),
        (list(range(1, 21)), 95, 19),
        (list(range(1, 201)), 95, 190),
        ([4.5], 95, 4.5),
    ],
)
def test_percentile_is_nearest_rank(values, p, expected):
    from repro.service.loadgen import percentile

    assert percentile(values[::-1], p) == expected


def _inputs(seed):
    corpus = inputs.corpus_programs()
    return {
        "corpus": list(itertools.islice(inputs.passes(corpus, seed, "corpus"), 3)),
        "large": inputs.large_programs(seed),
        "service-replay": list(itertools.islice(inputs.passes(corpus, seed, "service-replay"), 3)),
        "service-edit": inputs.edit_rounds(corpus, seed, 2),
    }


def test_a_seed_fixes_the_inputs_and_their_order():
    first, again, other = _inputs(5), _inputs(5), _inputs(6)
    assert first == again
    for workload in first:
        assert first[workload] != other[workload], workload


def test_no_program_is_in_flight_twice():
    corpus = inputs.corpus_programs()
    batches = itertools.islice(inputs.passes(corpus, 2, "service-replay"), 20)
    names = [name for batch in batches for name, _ in batch]
    assert all(len(set(names[i:i + 3])) == 3 for i in range(len(names) - 2))


def test_edits_differ_from_each_other_and_from_the_originals():
    corpus = inputs.corpus_programs()
    edited = [source for batch in inputs.edit_rounds(corpus, 3, 3) for _, source in batch]
    assert len(edited) == len(set(edited)) > 2 * len(corpus)
    assert not set(edited) & {source for _, source in corpus}


def test_known_answers_catch_a_misfiled_control():
    controls = inputs.reject_controls(inputs.corpus_programs(), 1)
    assert [control.accepted for control in controls] == [False, False]
    assert "without certificates" in controls[0].detail
    assert "axiom not satisfied" in controls[1].detail
    assert run.verdicts([], controls) == (0, 2)
    misfiled = [dataclasses.replace(controls[0], expect_accept=True), controls[1]]
    assert run.verdicts([], misfiled) == (1, 2)
    assert run.verdicts([run.Outcome("p", "", 0.1, accepted=False)], []) == (1, 1)


def _corpus_section(targets):
    """Four corpus programs run traced, with only ``targets`` wrapped."""
    batch = run.Batch("corpus", 1)
    batch.setup(traced=True)
    batch._restore()
    batch._restore = layers.install(batch.recorder, targets)
    try:
        return batch.run(inputs.corpus_programs()[:4])
    finally:
        batch.teardown()


def test_layer_accounting_catches_an_unwrapped_layer():
    from repro.pipeline import stages

    original = stages.parse_program
    section = _corpus_section(layers.PIPELINE)
    assert stages.parse_program is original
    metrics, accounted = run.per_layer("corpus", [section], section)
    assert accounted
    assert metrics["tracing.overhead_ms"] == 0
    assert metrics["kernel.axioms.ms"] > 0 and metrics["boogie.pretty.ms"] > 0
    assert metrics["kernel.methods.count"] >= 1
    unwrapped = [target for target in layers.PIPELINE if target[2] != "kernel.axioms"]
    metrics, accounted = run.per_layer("corpus", [section], _corpus_section(unwrapped))
    assert not accounted
    assert metrics["kernel.axioms.ms"] == 0


def test_the_schedule_depends_on_seconds_alone_and_stays_under_the_recycle():
    corpus = inputs.corpus_programs()
    edits = inputs.edit_rounds(corpus, 1, run.EDIT_ROUNDS)
    for seconds in (1, 10, 60, 600):
        assert 2 + len(corpus) * run.measured_passes("service-replay", seconds) < 500
        assert len(run.schedule(iter(edits), run.measured_passes("service-edit", seconds))) >= 200
        assert run.measured_passes("corpus", seconds) >= 4


def test_latencies_are_scaled_by_the_host_speed_around_each_operation():
    nominal = hostspeed.REFERENCE_SECONDS
    # The same 0.1 s of work; halfway through, the host runs twice as slow.
    outcomes = [run.Outcome(str(i), "", 0.1, True, references=[nominal]) for i in range(20)]
    outcomes += [run.Outcome(str(i), "", 0.2, True, references=[2 * nominal]) for i in range(20)]
    outcomes.append(run.Outcome("failed", "", 5.0, None, "boom", [2 * nominal]))
    section = run.Section(outcomes, 6.0, 0)
    assert run.latencies(section) == pytest.approx([0.1] * 40)
    # An operation sampled while it ran needs no neighbours.
    long = [run.Outcome("a", "", 0.3, True, references=[3 * nominal] * 7)] + outcomes[:3]
    assert run.latencies(run.Section(long, 1.0, 0))[0] == pytest.approx(0.1)
    assert run.end_to_end("corpus", section, [])["verdicts_per_s"] == pytest.approx(10)
    assert run.end_to_end("service-edit", section, [])["verdicts_per_s"] == pytest.approx(20)
    assert 0 < hostspeed.reference() < 0.1
    with hostspeed.Sampler() as host:
        time.sleep(0.2)
    assert host.samples and host.slowdown() > 0


def test_the_service_harness_cleans_up_after_a_failed_run():
    from repro.service.client import ServiceClient

    seen = {}
    with pytest.raises(RuntimeError, match="midway"):
        with service.Session(run.OUT) as session:
            server = session.start(session.cache_dir(), traced=True)
            seen["directory"] = session.directory
            with ServiceClient(service.HOST, server.port, service.REQUEST_TIMEOUT) as client:
                sent = time.perf_counter()
                response = client.certify(
                    inputs.corpus_programs()[0][1], **{layers.OP_FIELD: "0"}
                )
                received = time.perf_counter()
            seen["pids"] = server.processes()
            assert response["_status"] == 200 and response["ok"] is True
            own = layers.self_times(layers.service_spans(sent, received, response))
            assert min(own.values()) >= 0
            assert own["kernel.axioms"] > 0 and own["worker"] > 0
            raise RuntimeError("midway")
    assert len(seen["pids"]) == 2  # the server and its pool worker
    assert not any(service.alive(pid) for pid in seen["pids"])
    assert not seen["directory"].exists()
