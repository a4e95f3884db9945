"""Tests for systematic and random schedule exploration."""

import pytest

from repro.testing import (
    explore_pct,
    explore_random,
    explore_systematic,
    wilson_interval,
)
from repro.testing.explorer import RunSummary
from repro.vm import (
    Acquire,
    Kernel,
    Release,
    RunStatus,
    Yield,
)


def racing_pair_factory(scheduler):
    """Two threads taking two locks in opposite orders: some schedules
    deadlock, others complete."""
    kernel = Kernel(scheduler=scheduler)
    kernel.new_monitor("m1")
    kernel.new_monitor("m2")

    def worker(first, second):
        yield Acquire(first)
        yield Yield()
        yield Acquire(second)
        yield Release(second)
        yield Release(first)

    kernel.spawn(worker, "m1", "m2", name="a")
    kernel.spawn(worker, "m2", "m1", name="b")
    return kernel


def trivial_factory(scheduler):
    kernel = Kernel(scheduler=scheduler)

    def worker():
        yield Yield()
        yield Yield()

    kernel.spawn(worker, name="a")
    kernel.spawn(worker, name="b")
    return kernel


class TestSystematicExploration:
    def test_finds_the_deadlock(self):
        result = explore_systematic(racing_pair_factory, max_runs=200)
        statuses = result.statuses()
        assert statuses[RunStatus.DEADLOCK] > 0
        assert statuses[RunStatus.COMPLETED] > 0

    def test_exhaustive_on_small_tree(self):
        result = explore_systematic(trivial_factory, max_runs=1000)
        assert result.exhausted
        assert all(
            run.result.status is RunStatus.COMPLETED for run in result.runs
        )

    def test_run_count_bounded(self):
        result = explore_systematic(racing_pair_factory, max_runs=5)
        assert result.n_runs == 5
        assert not result.exhausted

    def test_no_duplicate_schedules(self):
        result = explore_systematic(trivial_factory, max_runs=1000)
        decision_lists = [run.decisions for run in result.runs]
        assert len(decision_lists) == len(set(decision_lists))

    def test_stop_on_failure(self):
        result = explore_systematic(
            racing_pair_factory, max_runs=500, stop_on_failure=True
        )
        assert result.failures()
        assert result.runs[-1].result.status is RunStatus.DEADLOCK

    def test_first_failure_index(self):
        result = explore_systematic(racing_pair_factory, max_runs=200)
        index = result.first_failure_index()
        assert index is not None
        assert 1 <= index <= result.n_runs

    def test_distinct_failure_signatures(self):
        result = explore_systematic(racing_pair_factory, max_runs=200)
        signatures = result.distinct_failure_signatures()
        assert ("deadlock", ("a", "b")) in signatures

    def test_describe(self):
        result = explore_systematic(racing_pair_factory, max_runs=50)
        text = result.describe()
        assert "explored" in text and "outcomes" in text


class TestRandomExploration:
    def test_seeded_runs(self):
        result = explore_random(racing_pair_factory, seeds=range(30))
        assert result.n_runs == 30

    def test_random_eventually_deadlocks(self):
        result = explore_random(racing_pair_factory, seeds=range(50))
        assert result.statuses().get(RunStatus.DEADLOCK, 0) > 0

    def test_reproducible(self):
        r1 = explore_random(racing_pair_factory, seeds=[4])
        r2 = explore_random(racing_pair_factory, seeds=[4])
        assert r1.runs[0].decisions == r2.runs[0].decisions

    def test_stop_on_failure(self):
        result = explore_random(
            racing_pair_factory, seeds=range(100), stop_on_failure=True
        )
        assert result.runs[-1].result.status is not RunStatus.COMPLETED
        assert result.n_runs <= 100

    def test_systematic_beats_random_on_first_failure(self):
        """Systematic DFS reaches the deadlock in a bounded number of
        schedules; random needs luck.  (The Ext-B claim in miniature.)"""
        systematic = explore_systematic(racing_pair_factory, max_runs=300)
        random_result = explore_random(racing_pair_factory, seeds=range(300))
        sys_first = systematic.first_failure_index()
        rnd_first = random_result.first_failure_index()
        assert sys_first is not None and rnd_first is not None


class TestFailureStatistics:
    def test_failure_rate(self):
        result = explore_random(racing_pair_factory, seeds=range(40))
        rate = result.failure_rate()
        assert 0.0 < rate < 1.0
        lo, hi = result.failure_rate_interval()
        assert 0.0 <= lo <= rate <= hi <= 1.0

    def test_zero_failures_still_admit_nonzero_rate(self):
        """The Wilson upper bound after N clean runs is ~ 3.84/(N+3.84),
        not zero — clean random testing never *proves* absence."""
        result = explore_random(trivial_factory, seeds=range(50))
        assert result.failure_rate() == 0.0
        lo, hi = result.failure_rate_interval()
        assert lo == 0.0
        assert 0.0 < hi < 0.15

    def test_empty_result(self):
        from repro.testing.explorer import ExplorationResult

        empty = ExplorationResult()
        assert empty.failure_rate() == 0.0
        assert empty.failure_rate_interval() == (0.0, 1.0)


class TestWilsonInterval:
    """The shared binomial-CI primitive (used by ExplorationResult and
    CampaignResult alike)."""

    def test_no_data(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 5, 100])
    @pytest.mark.parametrize("frac", [0.0, 0.5, 1.0])
    def test_always_inside_unit_interval(self, n, frac):
        failures = round(n * frac)
        lo, hi = wilson_interval(failures, n)
        eps = 1e-12  # the bounds touch p exactly at p in {0, 1}
        assert 0.0 <= lo <= failures / n + eps
        assert failures / n - eps <= hi <= 1.0

    def test_single_clean_run_is_nearly_uninformative(self):
        # n=1, 0 failures: the Wald interval collapses to [0, 0]; Wilson
        # correctly still admits a ~79% true failure rate.
        lo, hi = wilson_interval(0, 1)
        assert lo == 0.0
        assert 0.7 < hi < 0.9

    def test_single_failing_run_mirror(self):
        lo_clean, hi_clean = wilson_interval(0, 1)
        lo_fail, hi_fail = wilson_interval(1, 1)
        assert lo_fail == pytest.approx(1.0 - hi_clean)
        assert hi_fail == 1.0

    def test_narrows_with_n(self):
        widths = [
            hi - lo
            for lo, hi in (wilson_interval(n // 2, n) for n in (10, 100, 1000))
        ]
        assert widths[0] > widths[1] > widths[2]

    def test_known_value(self):
        # Classic worked example: 10 failures in 100 trials at z=1.96.
        lo, hi = wilson_interval(10, 100)
        assert lo == pytest.approx(0.0552, abs=1e-3)
        assert hi == pytest.approx(0.1744, abs=1e-3)


class TestPCTExploration:
    def test_seeded_runs_reproducible(self):
        r1 = explore_pct(racing_pair_factory, seeds=range(10))
        r2 = explore_pct(racing_pair_factory, seeds=range(10))
        assert r1.n_runs == 10
        assert [run.decisions for run in r1.runs] == [
            run.decisions for run in r2.runs
        ]

    def test_seed_recorded_on_runs(self):
        result = explore_pct(racing_pair_factory, seeds=[7, 8])
        assert [run.seed for run in result.runs] == [7, 8]


class TestStreamingHooks:
    """on_run / keep_runs — the campaign engine's constant-memory path."""

    def test_on_run_sees_every_run(self):
        seen = []
        result = explore_random(
            racing_pair_factory, seeds=range(8), on_run=seen.append
        )
        assert len(seen) == 8
        assert [run.index for run in seen] == list(range(8))
        assert result.n_executed == 8

    def test_keep_runs_false_drops_results(self):
        result = explore_systematic(
            trivial_factory, max_runs=100, keep_runs=False
        )
        assert result.runs == []
        assert result.n_executed > 0
        assert result.exhausted

    def test_pending_partitions_the_remaining_tree(self):
        """Stopping early leaves a pending frontier; enumerating each
        pending subtree separately completes the exact full enumeration."""
        full = explore_systematic(racing_pair_factory, max_runs=10_000)
        assert full.exhausted

        partial = explore_systematic(racing_pair_factory, max_runs=4)
        assert partial.pending
        schedules = {run.decisions for run in partial.runs}
        for prefix in partial.pending:
            sub = explore_systematic(
                racing_pair_factory, max_runs=10_000, roots=[list(prefix)]
            )
            assert sub.exhausted
            subtree = {run.decisions for run in sub.runs}
            assert not (schedules & subtree)  # disjoint from everything prior
            schedules |= subtree
        assert schedules == {run.decisions for run in full.runs}

    def test_exhausted_run_has_empty_pending(self):
        result = explore_systematic(trivial_factory, max_runs=1000)
        assert result.exhausted
        assert result.pending == []


class TestRunSummary:
    def test_roundtrip(self):
        result = explore_random(racing_pair_factory, seeds=[3])
        summary = result.runs[0].summary(
            arc_hits=[("send", "s0", "s1", 2)]
        )
        restored = RunSummary.from_dict(summary.to_dict())
        assert restored == summary
        assert restored.seed == 3

    def test_schedule_key_identifies_schedules(self):
        a = RunSummary(index=0, status="completed", decisions=(0, 1, 2))
        b = RunSummary(index=9, status="deadlock", decisions=(0, 1, 2))
        c = RunSummary(index=0, status="completed", decisions=(0, 1, 3))
        assert a.schedule_key == b.schedule_key  # same schedule, any outcome
        assert a.schedule_key != c.schedule_key

    def test_ok_and_signature(self):
        stuck = RunSummary(
            index=0, status="stuck", decisions=(), stuck_threads=("b", "a")
        )
        assert not stuck.ok
        assert stuck.signature == ("stuck", ("a", "b"))
        crashed = RunSummary(
            index=0, status="completed", decisions=(), crashed=("t",)
        )
        assert not crashed.ok  # a crash is a failure even if the run ended

    @pytest.mark.parametrize("seed", range(8))
    def test_from_result_is_the_constructed_summary(self, seed):
        """``from_result`` fills the instance dict directly; it must be
        the summary the dataclass constructor builds, field for field
        and in field order."""
        run = explore_random(racing_pair_factory, seeds=[seed]).runs[0]
        result = run.result
        kwargs = dict(
            arc_hits=[["send", "s0", "s1", 2]],
            detection={"classes": ["FF-T4"]},
            metrics={"vm_steps_total": result.steps},
        )
        summary = run.summary(**kwargs)
        built = RunSummary(
            index=run.index,
            status=result.status.value,
            decisions=tuple(run.decisions),
            prefix=tuple(run.prefix),
            seed=run.seed,
            steps=result.steps,
            stuck_threads=tuple(sorted(result.stuck_threads)),
            crashed=tuple(sorted(result.crashed)),
            arc_hits=(("send", "s0", "s1", 2),),
            detection=kwargs["detection"],
            metrics=kwargs["metrics"],
        )
        assert summary == built
        assert list(vars(summary)) == list(vars(built))
        assert summary.schedule_key == built.schedule_key
        bare = run.summary()
        assert (bare.arc_hits, bare.detection, bare.metrics) == ((), None, None)
