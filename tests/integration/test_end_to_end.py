"""End-to-end integration tests: the paper's full method on real
components — build CoFGs, construct covering sequences, run them with the
completion-time oracle, and confirm that mutants of every applicable
failure class are detected.
"""

import pytest

from repro.analysis import build_all_cofgs, check_component
from repro.classify import FailureClass
from repro.components import BoundedBuffer, ProducerConsumer
from repro.corpus import mutant
from repro.coverage import CoverageTracker
from repro.testing import TestSequence, annotate_expectations, run_sequence
from repro.vm import RunStatus


def pc_covering_sequence():
    """A hand-built sequence achieving 100% CoFG arc coverage for the
    producer-consumer monitor (the Section-6.1 exercise)."""
    return (
        TestSequence("pc-covering")
        # receive arcs: start->wait (c1), wait->wait (c2 after notifyAll
        # with 1 char), wait->notifyAll, start->notifyAll, notifyAll->end
        .add(1, "c1", "receive", check_completion=False)
        .add(2, "c2", "receive", check_completion=False)
        .add(3, "p1", "send", "a", check_completion=False)
        # send arcs: p3 blocks on the nonempty 3-char buffer
        # (start->wait); the receive at t=6 drains one char, wakes p3,
        # whose guard still holds (2 chars left): wait->wait
        .add(4, "p2", "send", "bcd", check_completion=False)
        .add(5, "p3", "send", "e", check_completion=False)
        .add(6, "c3", "receive", check_completion=False)
        .add(7, "c4", "receive", check_completion=False)
        .add(8, "c5", "receive", check_completion=False)
        .add(9, "c6", "receive", check_completion=False)
    )


class TestSection6Method:
    def test_full_arc_coverage_achievable(self):
        outcome = run_sequence(ProducerConsumer, pc_covering_sequence())
        assert outcome.coverage.is_complete(), outcome.coverage.describe()

    def test_coverage_paths_recorded(self):
        outcome = run_sequence(ProducerConsumer, pc_covering_sequence())
        assert len(outcome.coverage.paths) >= 9
        # at least one call travelled start -> wait -> notifyAll -> end
        node_paths = {p.nodes for p in outcome.coverage.paths}
        assert any(len(p) == 4 for p in node_paths)

    def test_golden_annotation_passes(self):
        outcome = run_sequence(ProducerConsumer, pc_covering_sequence())
        golden = annotate_expectations(outcome)
        assert run_sequence(ProducerConsumer, golden).passed


class TestMutationKillsWithCoveringSequence:
    """The paper's core claim operationalized: a CoFG-covering sequence
    with completion-time checking distinguishes correct from faulty."""

    @pytest.fixture(scope="class")
    def golden(self):
        outcome = run_sequence(ProducerConsumer, pc_covering_sequence())
        assert outcome.coverage.is_complete()
        return annotate_expectations(outcome)

    @pytest.mark.parametrize(
        "label",
        [
            "drop_notify@send#0",
            "drop_notify@receive#0",
            "drop_wait@receive#0",
            "drop_wait@send#0",
            "wait_if@receive#0",
            "wait_if@send#0",
            "wait_spin@receive#0",
            "wait_spin@send#0",
        ],
    )
    def test_mutant_killed(self, golden, label):
        outcome = run_sequence(mutant(ProducerConsumer, label), golden)
        assert not outcome.passed, f"{label} survived the covering sequence"

    def test_correct_component_passes(self, golden):
        assert run_sequence(ProducerConsumer, golden).passed


class TestBoundedBufferMethod:
    def test_covering_and_killing(self):
        sequence = (
            TestSequence("bb-covering")
            .add(1, "c1", "get", check_completion=False)
            .add(2, "c2", "get", check_completion=False)
            .add(3, "p1", "put", 1, check_completion=False)
            .add(4, "p2", "put", 2, check_completion=False)
            .add(5, "p3", "put", 3, check_completion=False)
            .add(6, "p4", "put", 4, check_completion=False)   # buffer [3,4]: full
            .add(7, "p5", "put", 5, check_completion=False)   # waits (start->wait)
            .add(8, "p6", "put", 6, check_completion=False)   # waits too
            .add(9, "c3", "get", check_completion=False)      # wakes both: p5
            # fills the slot, p6's guard still holds: wait->wait
            .add(10, "c4", "get", check_completion=False)     # releases p6
            .add(11, "s", "size", check_completion=False)
        )
        factory = lambda: BoundedBuffer(2)  # noqa: E731
        outcome = run_sequence(factory, sequence)
        put_get = [
            m
            for name, m in outcome.coverage.methods.items()
            if name in ("put", "get")
        ]
        assert all(m.is_complete() for m in put_get), outcome.coverage.describe()

        golden = annotate_expectations(outcome)
        assert run_sequence(factory, golden).passed

        mutated = mutant(BoundedBuffer, "drop_notify@put#0")
        assert not run_sequence(lambda: mutated(2), golden).passed


class TestStaticPlusDynamic:
    def test_paper_pipeline_on_clean_component(self):
        """CoFG + static checks + full coverage + oracle: all quiet on the
        correct producer-consumer."""
        assert check_component(ProducerConsumer) == []
        outcome = run_sequence(ProducerConsumer, pc_covering_sequence())
        assert outcome.coverage.anomalies == []
        assert outcome.report.races == []
        assert outcome.report.potential_deadlocks == []

    def test_trace_transitions_match_cofg_annotations(self):
        """Dynamic check of the CoFG arc annotations: a consumer whose
        call covered start->wait->notifyAll->end fired exactly
        T1,T2,T3 | T5,T2 | T5,T4 along the way."""
        outcome = run_sequence(ProducerConsumer, pc_covering_sequence())
        trace = outcome.result.trace
        # find a receive call that waited exactly once and completed
        for path in outcome.coverage.paths:
            if (
                path.record.method == "receive"
                and path.completed
                and len(path.nodes) == 4
                and path.nodes[1].startswith("wait")
            ):
                transitions = [
                    e.transition
                    for e in trace.transition_events(path.record.thread)
                    if path.record.begin_seq < e.seq
                    and (
                        path.record.end_seq is None
                        or e.seq <= path.record.end_seq
                    )
                ]
                assert transitions[:3] == ["T1", "T2", "T3"]
                assert transitions[3:5] == ["T5", "T2"]
                assert transitions[-1] == "T4"
                break
        else:
            pytest.fail("no single-wait receive call found")
