"""Live telemetry parity: the LiveAggregator's final state must equal the
campaign's own merged result byte-for-byte — same runs, same class
counts, same metrics — including across worker pools and --resume."""

import json
import multiprocessing

import pytest

from repro.engine import CampaignSpec, run_campaign
from repro.obs.live import LiveAggregator

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="requires fork start method")


def spec(**kwargs):
    defaults = dict(
        factory="pc-bug",
        mode="random",
        budget=40,
        shard_size=10,
        workers=0,
        detect=True,
        metrics=True,
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


def metrics_json(registry):
    return json.dumps(registry.to_dict(), sort_keys=True)


def assert_parity(live, result):
    assert live.runs == result.n_runs
    assert live.executed == result.n_runs + result.duplicates
    assert live.duplicates == result.duplicates
    assert dict(live.class_counts) == dict(result.class_counts)
    assert live.failures == len(result.failures())
    # The acceptance bar: merged metrics byte-for-byte equal.
    assert metrics_json(live.metrics) == metrics_json(result.metrics)


class TestInlineParity:
    def test_final_state_matches_result(self):
        telemetry = LiveAggregator()
        result = run_campaign(spec(), telemetry=telemetry)
        assert result.n_runs > 0
        assert result.class_counts  # pc-bug under detect finds classes
        assert_parity(telemetry, result)

    def test_info_seeded_and_closed(self):
        telemetry = LiveAggregator()
        result = run_campaign(spec(), telemetry=telemetry)
        assert telemetry.info["factory"] == "pc-bug"
        assert telemetry.info["fingerprint"] == spec().fingerprint()
        assert telemetry.total_runs == 40
        assert telemetry.state == "done"
        assert telemetry.goal == result.goal_reached == "budget"

    def test_shard_accounting_matches(self):
        telemetry = LiveAggregator()
        result = run_campaign(spec(), telemetry=telemetry)
        assert telemetry.shards_total == result.shards_total
        assert telemetry.shards_done == result.shards_completed
        states = {row.state for row in telemetry.shards.values()}
        assert states == {"done"}

    def test_registry_matches_build_metrics(self):
        """/metrics after close == the post-campaign --metrics-prom file."""
        from repro.obs.export import to_prometheus

        telemetry = LiveAggregator()
        result = run_campaign(spec(), telemetry=telemetry)
        live_text = to_prometheus(telemetry.registry())
        final_text = to_prometheus(result.build_metrics())
        # The live registry adds throughput (wall-clock dependent); strip
        # that one family, then demand identical text.
        def strip_rate(text):
            return "\n".join(
                line
                for line in text.splitlines()
                if "campaign_runs_per_second" not in line
            )

        assert strip_rate(live_text) == strip_rate(final_text)


@needs_fork
class TestPoolParity:
    def test_two_worker_campaign(self):
        telemetry = LiveAggregator()
        result = run_campaign(spec(workers=2), telemetry=telemetry)
        assert result.shards_completed == result.shards_total
        assert_parity(telemetry, result)
        # Frames carried shard-local counters: every shard row saw runs.
        assert all(row.runs > 0 for row in telemetry.shards.values())


class TestResumeParity:
    def test_resumed_campaign_matches_fresh_merge(self, tmp_path):
        journal = tmp_path / "camp.jsonl"
        first = run_campaign(spec(journal_path=str(journal)))

        telemetry = LiveAggregator()
        resumed = run_campaign(
            spec(journal_path=str(journal)), resume=True, telemetry=telemetry
        )
        assert resumed.shards_resumed == first.shards_total
        assert telemetry.shards_resumed == first.shards_total
        assert_parity(telemetry, resumed)
        # And the resumed merge equals the original run's merge.
        assert telemetry.runs == first.n_runs
        assert dict(telemetry.class_counts) == dict(first.class_counts)
        assert metrics_json(telemetry.metrics) == metrics_json(first.metrics)
