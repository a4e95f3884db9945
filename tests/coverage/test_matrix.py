"""Tests for CoverageMatrix, including the cross-process merge API."""

import pytest

from repro.analysis import build_all_cofgs
from repro.components import ProducerConsumer
from repro.coverage.matrix import CoverageMatrix
from repro.coverage.tracker import CoverageTracker
from repro.vm import Kernel, RandomScheduler


def pc_factory(scheduler):
    kernel = Kernel(scheduler=scheduler)
    pc = kernel.register(ProducerConsumer())

    def consumer():
        yield from pc.receive()

    def producer(payload):
        yield from pc.send(payload)

    for i in range(3):
        kernel.spawn(consumer, name=f"c{i}")
    kernel.spawn(producer, "ab", name="p1")
    kernel.spawn(producer, "c", name="p2")
    return kernel


@pytest.fixture(scope="module")
def cofgs():
    return build_all_cofgs(ProducerConsumer)


def tracked_counts(cofgs, seed):
    """Run one schedule and project its coverage both ways: as a fed
    tracker and as the plain dict a campaign worker would stream."""
    result = pc_factory(RandomScheduler(seed=seed)).run()
    tracker = CoverageTracker(cofgs)
    tracker.feed(result.trace)
    counts = {
        (method, src, dst): count
        for method, coverage in tracker.methods.items()
        for (src, dst), count in coverage.hits.items()
        if count
    }
    return tracker, counts


class TestAddCounts:
    def test_matches_add_run(self, cofgs):
        tracker, counts = tracked_counts(cofgs, seed=5)
        via_tracker = CoverageMatrix(cofgs)
        via_tracker.add_run(tracker, label="x")
        via_counts = CoverageMatrix(cofgs)
        via_counts.add_counts(counts, label="x")
        assert via_tracker.as_array() == via_counts.as_array()

    def test_unknown_arcs_ignored(self, cofgs):
        matrix = CoverageMatrix(cofgs)
        matrix.add_counts({("nosuch", "a", "b"): 7}, label="x")
        assert matrix.as_array() == [[0] * len(matrix.arc_keys)]

    def test_default_labels(self, cofgs):
        matrix = CoverageMatrix(cofgs)
        matrix.add_counts({})
        matrix.add_counts({})
        assert matrix.labels == ["run1", "run2"]


class TestMerge:
    def test_merge_equals_sequential(self, cofgs):
        sequential = CoverageMatrix(cofgs)
        part_a = CoverageMatrix(cofgs)
        part_b = CoverageMatrix(cofgs)
        for seed in range(6):
            _, counts = tracked_counts(cofgs, seed)
            sequential.add_counts(counts, label=f"seed{seed}")
            (part_a if seed < 3 else part_b).add_counts(
                counts, label=f"seed{seed}"
            )
        part_a.merge(part_b)
        assert part_a.as_array() == sequential.as_array()
        assert part_a.labels == sequential.labels
        assert part_a.coverage_fraction() == sequential.coverage_fraction()

    def test_mismatched_arcs_rejected(self, cofgs):
        matrix = CoverageMatrix(cofgs)
        other = CoverageMatrix(cofgs)
        other.arc_keys = other.arc_keys[:-1]
        with pytest.raises(ValueError, match="different arc sets"):
            matrix.merge(other)

    def test_merge_empty_is_noop(self, cofgs):
        matrix = CoverageMatrix(cofgs)
        _, counts = tracked_counts(cofgs, seed=1)
        matrix.add_counts(counts)
        before = matrix.as_array()
        matrix.merge(CoverageMatrix(cofgs))
        assert matrix.as_array() == before


class TestCoverageFraction:
    def test_empty_matrix(self, cofgs):
        assert CoverageMatrix(cofgs).coverage_fraction() == 0.0

    def test_grows_monotonically(self, cofgs):
        matrix = CoverageMatrix(cofgs)
        fractions = []
        for seed in range(10):
            _, counts = tracked_counts(cofgs, seed)
            matrix.add_counts(counts)
            fractions.append(matrix.coverage_fraction())
        assert fractions == sorted(fractions)
        assert 0.0 < fractions[-1] <= 1.0

    def test_running_union_matches_curve(self, cofgs):
        """The live read (a running union of covered arcs) equals the last
        point of the saturation curve after every append and merge."""
        matrix = CoverageMatrix(cofgs)
        for seed in range(8):
            tracker, counts = tracked_counts(cofgs, seed)
            if seed % 2:
                matrix.add_run(tracker)
            else:
                matrix.add_counts(counts)
            assert matrix.coverage_fraction() == matrix.cumulative_coverage()[-1]
        for seeds in (range(8, 10), range(0), range(10, 14)):
            shard = CoverageMatrix(cofgs)
            for seed in seeds:
                shard.add_counts(tracked_counts(cofgs, seed)[1])
            matrix.merge(shard)
            assert matrix.coverage_fraction() == matrix.cumulative_coverage()[-1]
        rebuilt = CoverageMatrix(cofgs, rows=matrix.as_array())
        assert rebuilt.coverage_fraction() == matrix.coverage_fraction()
