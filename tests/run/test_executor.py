"""Tests for RunExecutor: one assembly reused across runs, with results
identical to building everything fresh per run."""

import time

import pytest

from repro.run import RunConfig, RunConfigError
from repro.run.executor import RunExecutor

#: metric series whose values depend on wall-clock time, not schedule
#: content — excluded from reuse-vs-fresh parity comparisons.
WALL_CLOCK_SERIES = {"vm_events_per_second", "run_wall_seconds"}


def config(**kwargs):
    defaults = dict(workload="pc-bug")
    defaults.update(kwargs)
    return RunConfig(**defaults)


class TestAssemblyReuse:
    def test_executor_is_a_program_factory(self):
        executor = RunExecutor(config())
        kernel = executor(config().make_scheduler(seed=0))
        assert kernel.run().status is not None

    def test_pipeline_object_reused_across_runs(self):
        executor = RunExecutor(config(detect=True))
        executor.execute(config().make_scheduler(seed=0))
        first = executor.pipeline
        executor.execute(config().make_scheduler(seed=1))
        assert executor.pipeline is first

    def test_sink_object_reused_across_runs(self):
        executor = RunExecutor(config(metrics=True))
        executor.execute(config().make_scheduler(seed=0))
        first = executor.sink
        executor.execute(config().make_scheduler(seed=1))
        assert executor.sink is first

    def test_no_detect_means_no_pipeline(self):
        executor = RunExecutor(config())
        executor.execute(config().make_scheduler(seed=0))
        assert executor.pipeline is None
        assert executor.sink is None

    def test_invalid_config_rejected_at_construction(self):
        with pytest.raises(RunConfigError, match="unknown workload"):
            RunExecutor(config(workload="no-such"))


class TestParityWithFreshAssembly:
    """Reusing one pipeline/sink must change nothing observable."""

    SEEDS = range(12)

    def test_detection_matches_fresh_executors(self):
        reused = RunExecutor(config(detect=True))
        for seed in self.SEEDS:
            fresh = RunExecutor(config(detect=True))
            fresh_result = fresh.execute(config().make_scheduler(seed=seed))
            fresh_summary = fresh.pipeline.summary(fresh_result).to_dict()
            reused_result = reused.execute(config().make_scheduler(seed=seed))
            reused_summary = reused.pipeline.summary(reused_result).to_dict()
            assert reused_summary == fresh_summary, f"seed {seed}"

    def test_metrics_match_fresh_executors(self):
        reused = RunExecutor(config(metrics=True))
        for seed in self.SEEDS:
            fresh = RunExecutor(config(metrics=True))
            fresh.execute(config().make_scheduler(seed=seed))
            reused.execute(config().make_scheduler(seed=seed))
            fresh_series = {
                name: fresh.sink.collect().get(name).to_dict()
                for name in fresh.sink.collect().names()
                if name not in WALL_CLOCK_SERIES
            }
            reused_series = {
                name: reused.sink.collect().get(name).to_dict()
                for name in reused.sink.collect().names()
                if name not in WALL_CLOCK_SERIES
            }
            assert reused_series == fresh_series, f"seed {seed}"

    def test_run_results_deterministic_across_reuse(self):
        executor = RunExecutor(config(detect=True, metrics=True))
        statuses_first = [
            executor.execute(config().make_scheduler(seed=s)).status
            for s in self.SEEDS
        ]
        statuses_second = [
            executor.execute(config().make_scheduler(seed=s)).status
            for s in self.SEEDS
        ]
        assert statuses_first == statuses_second


class TestExplore:
    def test_explore_defaults_to_config_scheduler(self):
        executor = RunExecutor(config(scheduler="random"))
        result = executor.explore(seeds=range(5))
        assert len(result.runs) == 5

    def test_explore_systematic_uses_config_bounds(self):
        executor = RunExecutor(
            config(workload="racing-locks", scheduler="systematic")
        )
        result = executor.explore(max_runs=50)
        assert result.failures()

    def test_explore_pct(self):
        executor = RunExecutor(config(scheduler="pct"))
        result = executor.explore(seeds=range(5))
        assert len(result.runs) == 5

    def test_seeded_explore_needs_seeds(self):
        with pytest.raises(RunConfigError, match="needs seeds"):
            RunExecutor(config(scheduler="random")).explore()

    def test_unexplorable_scheduler_rejected(self):
        executor = RunExecutor(config(scheduler="fifo"))
        with pytest.raises(RunConfigError, match="cannot explore"):
            executor.explore(seeds=[0])

    def test_explorer_picks_up_executor_runner(self):
        # passing the executor as the factory must use its timeout runner
        executor = RunExecutor(
            config(workload=f"{__name__}:spin_factory", timeout=0.2)
        )
        result = executor.explore("random", seeds=[0])
        assert [r.result.status.value for r in result.runs] == ["timeout"]

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")
    def test_timeout_survives_a_swallowed_interrupt(self):
        # the alarm lands inside a finalizer, which swallows the
        # interrupt (as a gc.callbacks hook does); the run must still end
        # as a timeout, not spin on to its step limit
        executor = RunExecutor(
            config(workload=f"{__name__}:finalizer_factory", timeout=0.2)
        )
        result = executor.explore("random", seeds=[0])
        assert [r.result.status.value for r in result.runs] == ["timeout"]
        assert result.runs[0].result.steps < FINALIZER_MAX_STEPS

    def test_summarize_attaches_everything(self):
        executor = RunExecutor(
            config(
                workload="pc-ok",
                detect=True,
                metrics=True,
                coverage="repro.components:ProducerConsumer",
            )
        )
        result = executor.explore("random", seeds=[0])
        summary = executor.summarize(result.runs[0])
        assert summary.arc_hits
        assert summary.detection is not None
        assert summary.metrics is not None


def spin_factory(scheduler):
    from repro.vm import Kernel, Tick

    kernel = Kernel(scheduler=scheduler, max_steps=50_000_000)

    def spinner():
        while True:
            yield Tick()

    kernel.spawn(spinner, name="spin")
    return kernel


#: a bound on the finalizer workload, so a lost timeout ends the run
FINALIZER_MAX_STEPS = 200_000


class _SlowFinalizer:
    """Garbage whose finalizer outlasts the run timeout: an exception
    raised by a signal handler running inside it is swallowed."""

    def __del__(self):
        deadline = time.monotonic() + 0.5
        while time.monotonic() < deadline:
            pass


def finalizer_factory(scheduler):
    from repro.vm import Kernel, Tick

    kernel = Kernel(scheduler=scheduler, max_steps=FINALIZER_MAX_STEPS)

    def spinner():
        _SlowFinalizer()  # dropped at once: its finalizer runs here
        while True:
            yield Tick()

    kernel.spawn(spinner, name="spin")
    return kernel
