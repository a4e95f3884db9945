"""Tests for the campaign orchestrator: specs, goals, pools, resume."""

import multiprocessing
import os
import random

import pytest

from repro.engine import (
    CampaignError,
    CampaignSpec,
    JournalError,
    run_campaign,
)
from repro.engine.journal import CampaignJournal
from repro.engine.workloads import resolve_factory

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="requires fork start method")


def crash_factory(scheduler):
    """A factory that kills its process outright — the crash-isolation
    workload.  Only ever invoked inside a sacrificial worker child."""
    os._exit(3)


#: names the marker file whose creation records the one crash
CRASH_ONCE_ENV = "REPRO_TEST_CRASH_ONCE_MARKER"
_crash_once_builds = 0


def crash_once_factory(scheduler):
    """pc-bug, except that the first worker to reach its fourth run dies
    there, once per marker file: the requeue-and-replace workload."""
    global _crash_once_builds
    _crash_once_builds += 1
    if _crash_once_builds == 4:
        try:
            os.close(os.open(os.environ[CRASH_ONCE_ENV], os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            pass
        else:
            os._exit(3)
    return resolve_factory("pc-bug")(scheduler)


def report_body(result):
    """A campaign report without the lines a worker count may change."""
    return [
        line
        for line in result.describe().splitlines()[1:]
        if not line.lstrip().startswith("wall time")
    ]


def producer_only(scheduler):
    """A producer-consumer run with no consumer: it can never cover the
    ``receive`` arcs."""
    from repro.components import ProducerConsumer
    from repro.vm import Kernel

    kernel = Kernel(scheduler=scheduler)
    pc = kernel.register(ProducerConsumer())

    def producer():
        yield from pc.send("x")

    kernel.spawn(producer, name="p")
    return kernel


class TestSpecValidation:
    def test_unknown_mode(self):
        with pytest.raises(CampaignError, match="mode"):
            CampaignSpec(factory="pc-ok", mode="bogus").validate()

    def test_unknown_goal(self):
        with pytest.raises(CampaignError, match="goal"):
            CampaignSpec(factory="pc-ok", goal="bogus").validate()

    def test_coverage_goal_requires_component(self):
        with pytest.raises(CampaignError, match="coverage"):
            CampaignSpec(factory="pc-ok", goal="coverage").validate()

    def test_unknown_factory(self):
        with pytest.raises(ValueError, match="unknown workload"):
            CampaignSpec(factory="no-such-workload").validate()

    def test_nonpositive_budget(self):
        with pytest.raises(CampaignError, match="budget"):
            CampaignSpec(factory="pc-ok", budget=0).validate()


class TestFingerprint:
    def test_stable(self):
        a = CampaignSpec(factory="pc-bug", budget=100)
        b = CampaignSpec(factory="pc-bug", budget=100)
        assert a.fingerprint() == b.fingerprint()

    def test_schedule_space_fields_matter(self):
        base = CampaignSpec(factory="pc-bug", budget=100)
        assert (
            base.fingerprint()
            != CampaignSpec(factory="pc-bug", budget=200).fingerprint()
        )
        assert (
            base.fingerprint()
            != CampaignSpec(factory="pc-ok", budget=100).fingerprint()
        )

    def test_execution_fields_do_not(self):
        """Resuming with a different worker count / timeout is legal."""
        base = CampaignSpec(factory="pc-bug", budget=100)
        tweaked = CampaignSpec(
            factory="pc-bug",
            budget=100,
            workers=8,
            run_timeout=99.0,
            max_retries=7,
            journal_path="/tmp/x.jsonl",
        )
        assert base.fingerprint() == tweaked.fingerprint()


def _planned_runs(spec):
    from repro.engine.campaign import _plan

    shards, _, _ = _plan(spec)
    return [shard.max_runs for shard in shards]


class TestInlineCampaign:
    def test_budget_accounting(self):
        spec = CampaignSpec(factory="pc-bug", budget=40, workers=0, shard_size=10)
        result = run_campaign(spec)
        assert result.n_executed == 40
        assert result.shards_completed == result.shards_total == 4
        assert result.goal_reached == "budget"
        assert result.wall_time > 0

    def test_finds_seeded_bug_with_replay_artifacts(self):
        spec = CampaignSpec(factory="pc-bug", budget=60, workers=0)
        result = run_campaign(spec)
        assert result.failures()
        artifacts = result.replay_artifacts()
        assert artifacts
        for artifact in artifacts:
            assert artifact.seed is not None
            assert f"--seeds {artifact.seed}" in artifact.command()

    def test_replayed_seed_reproduces_failure(self):
        from repro.engine.workloads import pc_bug
        from repro.testing import explore_random

        spec = CampaignSpec(factory="pc-bug", budget=60, workers=0)
        result = run_campaign(spec)
        artifact = result.replay_artifacts()[0]
        rerun = explore_random(pc_bug, seeds=[artifact.seed])
        assert rerun.runs[0].signature == artifact.signature

    def test_first_failure_goal_stops_early(self):
        spec = CampaignSpec(
            factory="racing-locks",
            mode="systematic",
            budget=500,
            workers=0,
            shard_size=5,
            goal="first-failure",
        )
        result = run_campaign(spec)
        assert result.goal_reached == "first-failure"
        assert result.failures()
        assert result.n_executed < 500

    def test_systematic_exhausts_small_tree(self):
        spec = CampaignSpec(
            factory="racing-locks",
            mode="systematic",
            budget=10_000,
            workers=0,
            shard_size=100,
        )
        result = run_campaign(spec)
        assert result.exhausted
        # Sequential exhaustive DFS finds the same distinct schedules.
        from repro.engine.workloads import racing_locks
        from repro.testing import explore_systematic

        sequential = explore_systematic(racing_locks, max_runs=10_000)
        assert {s.decisions for s in result.summaries} == {
            r.decisions for r in sequential.runs
        }

    def test_coverage_tracking(self):
        spec = CampaignSpec(
            factory="pc-ok",
            budget=20,
            workers=0,
            coverage="repro.components:ProducerConsumer",
        )
        result = run_campaign(spec)
        assert result.coverage is not None
        assert 0.0 < result.coverage_fraction() <= 1.0
        assert "coverage" in result.describe()

    def test_coverage_goal_stops_at_full_coverage(self):
        spec = CampaignSpec(
            factory="pc-ok",
            budget=200,
            workers=0,
            shard_size=10,
            goal="coverage",
            coverage="repro.components:ProducerConsumer",
        )
        result = run_campaign(spec)
        assert result.goal_reached == "coverage"
        assert result.coverage_fraction() == 1.0
        full_at = result.coverage.runs_to_full_coverage()
        assert full_at is not None
        # the goal is checked between shards, so the shard that reached
        # full coverage runs to its end
        assert full_at <= result.n_executed < full_at + spec.shard_size

    def test_unreachable_coverage_goal_runs_the_whole_budget(self):
        spec = CampaignSpec(
            factory=f"{__name__}:producer_only",
            budget=12,
            workers=0,
            shard_size=5,
            goal="coverage",
            coverage="repro.components:ProducerConsumer",
        )
        result = run_campaign(spec)
        assert result.goal_reached is None
        assert result.n_executed == 12
        assert result.coverage.runs_to_full_coverage() is None
        assert 0.0 < result.coverage_fraction() < 1.0

    @pytest.mark.parametrize(
        "budget,shard_size",
        [(1, 25), (10, 1), (57, 10), (103, 25), (37, 10), (50, 3), (24, 5)],
    )
    @pytest.mark.parametrize("factory", ["pc-ok", "deadlock-pair"])
    def test_systematic_campaign_runs_exactly_its_budget(
        self, factory, budget, shard_size
    ):
        spec = CampaignSpec(
            factory=factory,
            mode="systematic",
            budget=budget,
            workers=0,
            shard_size=shard_size,
        )
        result = run_campaign(spec)
        assert not result.exhausted
        assert result.n_executed == budget
        assert all(shard_runs > 0 for shard_runs in _planned_runs(spec))

    def test_describe_is_complete(self):
        spec = CampaignSpec(factory="pc-bug", budget=30, workers=0)
        text = run_campaign(spec).describe()
        assert "unique schedules" in text
        assert "95% CI" in text
        assert "replay:" in text


@needs_fork
class TestPooledCampaign:
    def test_pool_matches_inline_results(self):
        inline = run_campaign(
            CampaignSpec(factory="pc-bug", budget=50, workers=0, shard_size=10)
        )
        pooled = run_campaign(
            CampaignSpec(factory="pc-bug", budget=50, workers=2, shard_size=10)
        )
        assert pooled.n_executed == inline.n_executed == 50
        assert {s.schedule_key for s in pooled.summaries} == {
            s.schedule_key for s in inline.summaries
        }
        assert set(pooled.distinct_failure_signatures()) == set(
            inline.distinct_failure_signatures()
        )

    def test_pool_prints_the_inline_replay_commands(self):
        def commands(workers):
            spec = CampaignSpec(factory="pc-bug", budget=200, workers=workers)
            return [a.command() for a in run_campaign(spec).replay_artifacts()]

        inline = commands(0)
        assert len(inline) >= 2
        assert commands(2) == inline

    def test_crashing_worker_requeues_then_fails_shard(self):
        spec = CampaignSpec(
            factory=f"{__name__}:crash_factory",
            budget=5,
            workers=1,
            shard_size=5,
            max_retries=1,
        )
        result = run_campaign(spec)
        assert result.shards_failed == ["random-000000-000005"]
        assert result.shards_requeued == 1  # one retry, then give up
        assert result.n_executed == 0
        assert result.goal_reached is None  # budget goal unmet


    @needs_fork
    @pytest.mark.parametrize("workers", [1, 2])
    def test_crashed_worker_is_replaced_and_its_shard_finished(
        self, workers, tmp_path, monkeypatch
    ):
        marker = tmp_path / "crashed"
        monkeypatch.setenv(CRASH_ONCE_ENV, str(marker))
        inline = run_campaign(
            CampaignSpec(factory="pc-bug", budget=40, workers=0, shard_size=10)
        )
        pooled = run_campaign(
            CampaignSpec(
                factory=f"{__name__}:crash_once_factory",
                budget=40,
                workers=workers,
                shard_size=10,
            )
        )
        assert marker.exists()
        assert pooled.shards_requeued == 1
        assert not pooled.shards_failed
        assert pooled.shards_completed == pooled.shards_total == 4
        assert pooled.goal_reached == "budget"
        assert {s.schedule_key for s in pooled.summaries} == {
            s.schedule_key for s in inline.summaries
        }
        assert set(pooled.distinct_failure_signatures()) == set(
            inline.distinct_failure_signatures()
        )

    @pytest.mark.parametrize("shard_size", [7, 13, 45])
    def test_uneven_shards_match_inline(self, shard_size):
        def campaign(workers):
            return run_campaign(
                CampaignSpec(
                    factory="pc-bug",
                    budget=100,
                    workers=workers,
                    shard_size=shard_size,
                    detect=True,
                )
            )

        inline, pooled = campaign(0), campaign(2)
        assert pooled.n_executed == inline.n_executed == 100
        assert {s.schedule_key for s in pooled.summaries} == {
            s.schedule_key for s in inline.summaries
        }
        assert report_body(pooled) == report_body(inline)

    @needs_fork
    def test_workers_serve_many_shards_and_return(self, tmp_path, monkeypatch):
        # every worker enters through the module's worker_main, looked up
        # at launch, and leaves by returning from it
        import repro.engine.campaign as campaign_module

        original = campaign_module.worker_main

        def recording_worker_main(inbox, queue):
            original(inbox, queue)
            (tmp_path / str(os.getpid())).touch()

        monkeypatch.setattr(campaign_module, "worker_main", recording_worker_main)
        result = run_campaign(
            CampaignSpec(factory="pc-ok", budget=100, workers=2, shard_size=10)
        )
        assert result.shards_completed == 10
        assert 1 <= len(list(tmp_path.iterdir())) <= 2


class TestJournalAndResume:
    def test_resume_without_journal_rejected(self):
        with pytest.raises(CampaignError, match="journal"):
            run_campaign(
                CampaignSpec(factory="pc-ok", budget=5, workers=0), resume=True
            )

    def test_resume_wrong_spec_rejected(self, tmp_path):
        journal = str(tmp_path / "c.jsonl")
        run_campaign(
            CampaignSpec(
                factory="pc-ok", budget=10, workers=0, journal_path=journal
            )
        )
        with pytest.raises(JournalError, match="different campaign"):
            run_campaign(
                CampaignSpec(
                    factory="pc-ok", budget=20, workers=0, journal_path=journal
                ),
                resume=True,
            )

    def test_full_resume_executes_nothing(self, tmp_path, monkeypatch):
        journal = str(tmp_path / "c.jsonl")
        spec = CampaignSpec(
            factory="pc-bug", budget=40, workers=0, shard_size=10,
            journal_path=journal,
        )
        first = run_campaign(spec)

        def boom(*args, **kwargs):
            raise AssertionError("resume must not re-execute journaled shards")

        monkeypatch.setattr("repro.engine.campaign.execute_shard", boom)
        resumed = run_campaign(spec, resume=True)
        assert resumed.shards_resumed == resumed.shards_total == 4
        assert resumed.n_executed == first.n_executed
        assert {s.schedule_key for s in resumed.summaries} == {
            s.schedule_key for s in first.summaries
        }

    def test_partial_resume_completes_remainder(self, tmp_path):
        journal_path = tmp_path / "c.jsonl"
        spec = CampaignSpec(
            factory="pc-bug", budget=40, workers=0, shard_size=10,
            journal_path=str(journal_path),
        )
        first = run_campaign(spec)

        # Simulate a kill after the first journaled shard: drop the rest.
        lines = journal_path.read_text().splitlines()
        journal_path.write_text("\n".join(lines[:2]) + "\n")
        assert len(CampaignJournal(journal_path).load().shards) == 1

        resumed = run_campaign(spec, resume=True)
        assert resumed.shards_resumed == 1
        assert resumed.shards_completed == resumed.shards_total == 4
        assert {s.schedule_key for s in resumed.summaries} == {
            s.schedule_key for s in first.summaries
        }
        # The journal is whole again for the *next* resume.
        assert len(CampaignJournal(journal_path).load().shards) == 4

class _NoIterList(list):
    """A summaries list whose iteration fails: goal checks must not scan."""

    def __iter__(self):
        raise AssertionError("goal check iterated result.summaries")


def _summary(index, status="completed", detection=None):
    from repro.testing.explorer import RunSummary

    return RunSummary(
        index=index, status=status, decisions=(index,), seed=index,
        detection=detection,
    )


class TestGoalFlags:
    def _aggregator(self, goal):
        from repro.engine.campaign import _Aggregator
        from repro.engine.progress import ProgressTracker

        aggregator = _Aggregator(
            CampaignSpec(factory="pc-bug", goal=goal), ProgressTracker()
        )
        aggregator.result.summaries = _NoIterList()
        return aggregator

    def test_first_failure_goal_check_does_not_iterate_summaries(self):
        aggregator = self._aggregator("first-failure")
        for i in range(50):
            aggregator.merge(_summary(i))
            assert aggregator.goal_reached() is None
        aggregator.merge(_summary(50, status="deadlock"))
        assert aggregator.goal_reached() == "first-failure"

    def test_first_deadlock_goal_check_does_not_iterate_summaries(self):
        aggregator = self._aggregator("first-deadlock")
        aggregator.merge(_summary(0, status="crashed"))
        assert aggregator.goal_reached() is None
        aggregator.merge(_summary(1, detection={"deadlock_cycle": ["a", "b"]}))
        assert aggregator.goal_reached() == "first-deadlock"

    def test_duplicate_does_not_set_flag(self):
        aggregator = self._aggregator("first-failure")
        aggregator.merge(_summary(0))
        # same schedule key, failing status: deduplicated, never counted
        aggregator.merge(_summary(0, status="deadlock"))
        assert aggregator.result.duplicates == 1
        assert aggregator.goal_reached() is None

    def test_resume_restores_goal(self, tmp_path):
        spec = CampaignSpec(
            factory="racing-locks", mode="systematic", budget=500, workers=0,
            shard_size=5, goal="first-failure",
            journal_path=str(tmp_path / "c.jsonl"),
        )
        first = run_campaign(spec)
        assert first.goal_reached == "first-failure"
        resumed = run_campaign(spec, resume=True)
        assert resumed.goal_reached == "first-failure"
        assert resumed.n_executed == first.n_executed


class TestReplaySeeds:
    """A random or PCT campaign keeps each failing schedule's lowest
    seed and replays each failure signature's lowest seed, in seed
    order, whatever order a pool merges the runs in."""

    @pytest.mark.parametrize("mode", ["random", "pct"])
    @pytest.mark.parametrize("workload", ["pc-no-notify", "deadlock-pair"])
    def test_shuffled_merges_replay_the_lowest_seeds(self, workload, mode):
        from repro.engine.campaign import _Aggregator
        from repro.engine.progress import ProgressTracker
        from repro.engine.shards import Shard
        from repro.engine.worker import WorkerTask, execute_shard

        # Every run of 150 seeds, repeated schedules included: pc-no-notify
        # fails in many ways, deadlock-pair one way along repeated schedules.
        spec = CampaignSpec(factory=workload, mode=mode)
        shard = Shard(shard_id="all", mode=mode, seeds=tuple(range(150)), max_runs=150)
        runs = execute_shard(WorkerTask(shard=shard, config=spec.run_config())).summaries
        lowest = {}
        for s in runs:
            if not s.ok:
                lowest[s.signature] = min(s.seed, lowest.get(s.signature, s.seed))
        expected = sorted(lowest.items(), key=lambda item: item[1])
        assert expected
        kept = set()
        for order in range(5):
            shuffled = list(runs)
            random.Random(order).shuffle(shuffled)
            aggregator = _Aggregator(spec, ProgressTracker())
            for summary in shuffled:
                aggregator.merge(summary)
            result = aggregator.result
            assert [(a.signature, a.seed) for a in result.replay_artifacts()] == expected
            kept.add(tuple(sorted(s.seed for s in result.failures())))
        assert len(kept) == 1


class TestCampaignMetrics:
    def test_metrics_out_implies_metrics(self):
        spec = CampaignSpec(factory="pc-ok", metrics_out="/tmp/m.jsonl")
        spec.validate()
        assert spec.metrics is True

    def test_metrics_prom_implies_metrics(self):
        spec = CampaignSpec(factory="pc-ok", metrics_prom="/tmp/m.prom")
        spec.validate()
        assert spec.metrics is True

    def test_fingerprint_includes_metrics(self):
        base = CampaignSpec(factory="pc-bug", budget=100)
        metered = CampaignSpec(factory="pc-bug", budget=100, metrics=True)
        assert base.fingerprint() != metered.fingerprint()

    def test_inline_campaign_collects_metrics(self):
        spec = CampaignSpec(factory="pc-bug", budget=30, workers=0, metrics=True)
        result = run_campaign(spec)
        assert result.metrics is not None
        assert result.metrics.counter("vm_events_total").total > 0
        built = result.build_metrics()
        statuses = {
            dict(labels)["status"]: value
            for labels, value in built.counter("campaign_runs_total").series().items()
        }
        assert sum(statuses.values()) == result.n_runs

    def test_build_metrics_leaves_result_metrics_untouched(self):
        spec = CampaignSpec(factory="pc-bug", budget=10, workers=0, metrics=True)
        result = run_campaign(spec)
        before = result.metrics.to_dict()
        first = result.build_metrics()
        first.counter("vm_events_total").inc(1000)
        assert result.metrics.to_dict() == before
        assert "campaign_runs_total" not in result.metrics
        second = result.build_metrics().counter("vm_events_total").total
        assert second == result.metrics.counter("vm_events_total").total

    def test_metrics_off_leaves_result_bare(self):
        result = run_campaign(CampaignSpec(factory="pc-ok", budget=5, workers=0))
        assert result.metrics is None
        # build_metrics still works: campaign counters only
        assert result.build_metrics().counter("campaign_runs_total").total == 5

    @needs_fork
    def test_pooled_merge_matches_inline(self):
        """Per-run snapshots merged across >=2 worker processes agree with
        the single-process merge on every deterministic series."""
        inline = run_campaign(
            CampaignSpec(
                factory="pc-bug", budget=40, workers=0, shard_size=10,
                metrics=True,
            )
        )
        pooled = run_campaign(
            CampaignSpec(
                factory="pc-bug", budget=40, workers=2, shard_size=10,
                metrics=True,
            )
        )
        for name in (
            "vm_events_total",
            "vm_steps_total",
            "vm_monitor_acquisitions_total",
            "vm_monitor_hold_ticks_total",
            "vm_monitor_contended_ticks_total",
        ):
            assert (
                pooled.metrics.counter(name).series()
                == inline.metrics.counter(name).series()
            ), name

    def test_metrics_out_round_trips(self, tmp_path):
        from repro.obs.export import load_metrics_jsonl

        out = tmp_path / "metrics.jsonl"
        spec = CampaignSpec(
            factory="pc-bug", budget=20, workers=0, metrics=True,
            metrics_out=str(out),
        )
        result = run_campaign(spec)
        loaded, header = load_metrics_jsonl(out)
        assert loaded.to_dict() == result.build_metrics().to_dict()
        assert header["factory"] == "pc-bug"
        assert header["runs"] == result.n_runs
        assert header["campaign"] == spec.fingerprint()[:12]

    def test_metrics_prom_written(self, tmp_path):
        prom = tmp_path / "metrics.prom"
        run_campaign(
            CampaignSpec(
                factory="pc-bug", budget=10, workers=0, metrics=True,
                metrics_prom=str(prom),
            )
        )
        text = prom.read_text()
        assert "# TYPE vm_events_total counter" in text
        assert "# TYPE campaign_runs_total counter" in text

    def test_journal_resume_reproduces_merged_metrics(self, tmp_path):
        journal = str(tmp_path / "c.jsonl")
        spec = CampaignSpec(
            factory="pc-bug", budget=30, workers=0, shard_size=10,
            metrics=True, journal_path=journal,
        )
        first = run_campaign(spec)
        resumed = run_campaign(spec, resume=True)
        assert resumed.shards_resumed == resumed.shards_total
        assert resumed.metrics.to_dict() == first.metrics.to_dict()

    def test_resume_with_flipped_metrics_rejected(self, tmp_path):
        journal = str(tmp_path / "c.jsonl")
        run_campaign(
            CampaignSpec(
                factory="pc-ok", budget=10, workers=0, journal_path=journal
            )
        )
        with pytest.raises(JournalError, match="different campaign"):
            run_campaign(
                CampaignSpec(
                    factory="pc-ok", budget=10, workers=0, metrics=True,
                    journal_path=journal,
                ),
                resume=True,
            )


class TestJournalAndResumeSystematic:
    def test_systematic_resume_skips_planner_merge(self, tmp_path):
        journal = str(tmp_path / "c.jsonl")
        spec = CampaignSpec(
            factory="racing-locks", mode="systematic", budget=200,
            workers=0, shard_size=20, journal_path=journal,
        )
        first = run_campaign(spec)
        resumed = run_campaign(spec, resume=True)
        assert resumed.duplicates == 0  # planner runs not double-merged
        assert resumed.n_runs == first.n_runs
