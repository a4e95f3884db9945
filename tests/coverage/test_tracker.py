"""Tests for CoFG arc-coverage tracking (paper Section 6)."""

import pytest

from repro.analysis import build_all_cofgs
from repro.components import BoundedBuffer, ProducerConsumer
from repro.coverage import CoverageMatrix, CoverageTracker
from repro.testing import TestSequence, run_sequence
from repro.vm import FifoScheduler, Kernel


def run_pc(calls):
    """Run a clocked sequence against ProducerConsumer, return outcome."""
    sequence = TestSequence("t")
    for i, (thread, method, *args) in enumerate(calls, start=1):
        sequence.add(i, thread, method, *args, check_completion=False)
    return run_sequence(ProducerConsumer, sequence)


def fresh_tracker():
    return CoverageTracker(build_all_cofgs(ProducerConsumer))


class TestTracker:
    def test_initially_uncovered(self):
        tracker = fresh_tracker()
        assert tracker.covered_arcs == 0
        assert tracker.total_arcs == 10
        assert not tracker.is_complete()
        assert tracker.fraction == 0.0

    def test_simple_send_receive(self):
        outcome = run_pc([("p", "send", "x"), ("c", "receive")])
        coverage = outcome.coverage
        # both methods took the no-wait path: start->notifyAll->end
        send_cov = coverage.methods["send"]
        assert send_cov.covered_arcs == 2
        recv_cov = coverage.methods["receive"]
        assert recv_cov.covered_arcs == 2

    def test_waiting_consumer_covers_start_to_wait(self):
        outcome = run_pc([("c", "receive"), ("p", "send", "x")])
        recv = outcome.coverage.methods["receive"]
        covered = {
            key for key, hits in recv.hits.items() if hits > 0
        }
        assert any(src == "start" and dst.startswith("wait") for src, dst in covered)
        assert any(
            src.startswith("wait") and dst.startswith("notifyAll")
            for src, dst in covered
        )

    def test_wait_to_wait_needs_requeue(self):
        """Two consumers, one one-char send: both wake, one re-waits."""
        outcome = run_pc(
            [("c1", "receive"), ("c2", "receive"), ("p", "send", "x")]
        )
        recv = outcome.coverage.methods["receive"]
        covered = {key for key, hits in recv.hits.items() if hits > 0}
        assert any(
            src.startswith("wait") and dst.startswith("wait") for src, dst in covered
        )

    def test_incomplete_call_still_covers_prefix(self):
        outcome = run_pc([("c", "receive")])  # blocks forever
        recv = outcome.coverage.methods["receive"]
        start_to_wait = [
            hits
            for (src, dst), hits in recv.hits.items()
            if src == "start" and dst.startswith("wait")
        ]
        assert start_to_wait == [1]

    def test_uncovered_listing(self):
        outcome = run_pc([("p", "send", "x")])
        uncovered = outcome.coverage.uncovered()
        assert "receive" in uncovered
        assert len(uncovered["receive"]) == 5

    def test_full_coverage_sequence(self):
        outcome = run_pc(
            [
                ("c1", "receive"),
                ("c2", "receive"),
                ("p1", "send", "ab"),   # wakes both; one re-waits
                ("p2", "send", "xy"),   # blocks: buffer nonempty
                ("p3", "send", "z"),    # second blocked producer
                ("c3", "receive"),
                ("c4", "receive"),
                ("c5", "receive"),
                ("c6", "receive"),
            ]
        )
        assert outcome.coverage.fraction >= 0.9

    def test_describe_output(self):
        outcome = run_pc([("p", "send", "x")])
        text = outcome.coverage.describe()
        assert "CoFG coverage" in text
        assert "UNCOVERED" in text and "COVERED" in text

    def test_no_anomalies_on_correct_component(self):
        outcome = run_pc(
            [("c", "receive"), ("p", "send", "ab"), ("c2", "receive")]
        )
        assert outcome.coverage.anomalies == []

    def test_multiple_feeds_accumulate(self):
        tracker = fresh_tracker()
        out1 = run_pc([("p", "send", "x")])
        out2 = run_pc([("c", "receive"), ("p", "send", "x")])
        tracker.feed(out1.result.trace)
        before = tracker.covered_arcs
        tracker.feed(out2.result.trace)
        assert tracker.covered_arcs >= before

    def test_empty_cofgs_rejected(self):
        with pytest.raises(ValueError):
            CoverageTracker({})

    def test_other_component_ignored(self):
        kernel = Kernel(scheduler=FifoScheduler())
        buffer = kernel.register(BoundedBuffer(2))

        def body():
            yield from buffer.put(1)

        kernel.spawn(body)
        result = kernel.run()
        tracker = fresh_tracker()  # ProducerConsumer CoFGs
        tracker.feed(result.trace)
        assert tracker.covered_arcs == 0
        assert tracker.anomalies == []


class TestCoverageMatrix:
    def _matrix_with_runs(self, runs):
        cofgs = build_all_cofgs(ProducerConsumer)
        matrix = CoverageMatrix(cofgs)
        for calls in runs:
            tracker = CoverageTracker(cofgs)
            tracker.feed(run_pc(calls).result.trace)
            matrix.add_run(tracker)
        return matrix

    def test_shape(self):
        matrix = self._matrix_with_runs([[("p", "send", "x")]])
        array = matrix.as_array()
        assert [len(row) for row in array] == [10]

    def test_cumulative_coverage_monotone(self):
        matrix = self._matrix_with_runs(
            [
                [("p", "send", "x")],
                [("c", "receive"), ("p", "send", "x")],
                [("c1", "receive"), ("c2", "receive"), ("p", "send", "x")],
            ]
        )
        curve = matrix.cumulative_coverage()
        assert len(curve) == 3
        assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_runs_to_full_coverage_none_when_incomplete(self):
        matrix = self._matrix_with_runs([[("p", "send", "x")]])
        assert matrix.runs_to_full_coverage() is None

    def test_rarest_arcs(self):
        matrix = self._matrix_with_runs(
            [[("p", "send", "x")], [("p", "send", "y")]]
        )
        rare = matrix.rarest_arcs(k=2)
        assert len(rare) == 2
        assert all(rate == 0.0 for _, rate in rare)

    def test_labels(self):
        matrix = self._matrix_with_runs([[("p", "send", "x")]])
        assert matrix.labels == ["run1"]

    def test_empty_matrix(self):
        cofgs = build_all_cofgs(ProducerConsumer)
        matrix = CoverageMatrix(cofgs)
        assert matrix.as_array() == []
        assert len(matrix.arc_keys) == 10
        assert matrix.cumulative_coverage() == []
