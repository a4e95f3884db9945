"""LiveAggregator: a view of the bound campaign state — status document,
registry view, shard rows and SSE frames."""

import json
import sys
import threading

from repro.obs.live.aggregate import LiveAggregator, attach_campaign_info
from repro.obs.live.frames import TelemetryFrame
from repro.obs.metrics import MetricsRegistry
from repro.testing.explorer import RunSummary


def summary(**kwargs):
    defaults = dict(index=0, status="completed", decisions=(0,))
    defaults.update(kwargs)
    return RunSummary(**defaults)


def feed(agg, s, duplicate, shard_id="", frame=None):
    """Merge one run as the campaign does: fold it into the bound state,
    then hand it to the live view."""
    agg.progress.note_run(s, duplicate)
    agg.note_run(s, duplicate, shard_id, frame)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestNoteRun:
    def test_unique_run_counts_everything(self):
        agg = LiveAggregator()
        feed(agg, summary(status="deadlock", stuck_threads=("a",)), False)
        assert agg.runs == 1
        assert agg.executed == 1
        assert agg.failures == 1
        doc = agg.status()
        assert doc["statuses"] == {"deadlock": 1}
        assert doc["signatures"] == 1

    def test_duplicate_counts_execution_only(self):
        agg = LiveAggregator()
        feed(agg, summary(), False)
        feed(agg, summary(), True)
        assert agg.executed == 2
        assert agg.runs == 1
        assert agg.duplicates == 1
        assert agg.status()["statuses"] == {"completed": 1}

    def test_classes_folded_from_unique_runs_only(self):
        agg = LiveAggregator()
        s = summary(detection={"classes": ["DD.AB"]})
        feed(agg, s, False)
        feed(agg, s, True)
        assert agg.class_counts == {"DD.AB": 1}

    def test_metrics_merged_from_unique_runs_only(self):
        agg = LiveAggregator()
        s = summary(metrics={"vm_steps_total": 5})
        feed(agg, s, False)
        feed(agg, s, True)
        metric = agg.metrics.get("vm_steps_total")
        assert metric is not None and metric.get() == 5

    def test_note_run_counts_nothing_itself(self):
        agg = LiveAggregator()
        agg.note_run(summary(metrics={"vm_steps_total": 5}), False)
        assert (agg.runs, agg.executed, agg.failures) == (0, 0, 0)
        assert agg.metrics.get("vm_steps_total") is None

    def test_standalone_view_shares_its_trackers_registry(self):
        agg = LiveAggregator()
        assert agg.metrics is agg.progress.metrics
        feed(agg, summary(metrics={"vm_steps_total": 2}), False)
        assert agg.progress.metrics.get("vm_steps_total").get() == 2
        assert agg.registry().get("vm_steps_total").get() == 2

    def test_frame_counters_update_shard_row(self):
        agg = LiveAggregator()
        s = summary(status="timeout")
        frame = TelemetryFrame.for_run("sh-0", s, runs=4, timeouts=2)
        agg.note_run(s, False, shard_id="sh-0", frame=frame)
        row = agg.shards["sh-0"]
        assert (row.runs, row.timeouts, row.attempts) == (4, 2, 1)
        assert row.state == "running"

    def test_frameless_run_increments_shard_row(self):
        agg = LiveAggregator()
        agg.note_run(summary(status="timeout"), False, shard_id="sh-0")
        agg.note_run(summary(index=1), False, shard_id="sh-0")
        row = agg.shards["sh-0"]
        assert (row.runs, row.timeouts) == (2, 1)


class TestShardLifecycle:
    def test_done_failed_requeued(self):
        agg = LiveAggregator()
        agg.progress.note_shard_done("a", exhausted=True)
        agg.progress.note_shard_failed("b", error="boom")
        agg.progress.note_shard_requeued("c")
        shards = agg.status()["shards"]
        assert (shards["done"], shards["failed"], shards["requeued"]) == (1, 1, 1)
        assert agg.shards["a"].state == "done" and agg.shards["a"].exhausted
        assert agg.shards["b"].error == "boom"
        assert agg.shards["c"].attempts == 2

    def test_transitions_published(self):
        agg = LiveAggregator()
        subscriber = agg.subscribe()
        agg.progress.shards_total = 3
        agg.progress.note_shard_done("a", exhausted=True)
        agg.progress.note_shard_failed("b", error="boom")
        agg.progress.note_shard_requeued("c")
        frames = [subscriber.get_nowait() for _ in range(3)]
        assert frames[0] == {
            "kind": "shard-done",
            "shard": "a",
            "exhausted": True,
            "shards_done": 1,
            "shards_total": 3,
            "seq": 1,
        }
        assert frames[1]["kind"] == "shard-failed"
        assert frames[1]["error"] == "boom"
        assert frames[2]["kind"] == "shard-requeued"
        assert frames[2]["shard"] == "c"

    def test_requeue_resets_run_counters(self):
        agg = LiveAggregator()
        s = summary()
        agg.note_run(s, False, "sh", TelemetryFrame.for_run("sh", s, runs=9))
        agg.progress.note_shard_requeued("sh")
        assert agg.shards["sh"].runs == 0

    def test_resumed_shards_count_as_done(self):
        agg = LiveAggregator()
        agg.progress.note_shards_resumed(["a", "b"])
        assert agg.shards_resumed == 2
        assert agg.shards_done == 2
        assert agg.shards["a"].state == "resumed"


class TestStatusDocument:
    def test_core_fields_and_info(self):
        clock = FakeClock()
        agg = LiveAggregator(
            info={"factory": "pc-bug", "mode": "random"},
            total_runs=100,
            clock=clock,
        )
        agg.progress.shards_total = 4
        clock.now += 2.0
        for index in range(10):
            feed(agg, summary(index=index, decisions=(index,)), False, "sh")
        doc = agg.status()
        assert doc["format"] == "repro-live-status"
        assert doc["state"] == "running"
        assert doc["runs"] == doc["executed"] == 10
        assert doc["factory"] == "pc-bug"
        assert doc["runs_per_sec"] == 5.0
        assert doc["eta_seconds"] == 18.0
        assert doc["shards"]["total"] == 4
        assert doc["shard_table"][0]["shard"] == "sh"
        json.loads(agg.status_json())  # always serializable

    def test_close_records_state_and_goal(self):
        agg = LiveAggregator()
        agg.close(goal="first-failure")
        doc = agg.status()
        assert doc["state"] == "done"
        assert doc["goal"] == "first-failure"

    def test_top_contended_surfaced_from_metrics(self):
        agg = LiveAggregator()
        record = {"vm_monitor_contended_ticks_total": {"m": 7}}
        feed(agg, summary(metrics=record), False)
        assert agg.status()["top_contended"] == {"monitor": "m", "ticks": 7}


class TestRegistryView:
    def test_campaign_counters_present(self):
        agg = LiveAggregator(info={"fingerprint": "f" * 12, "factory": "pc"})
        agg.progress.shards_total = 3
        feed(agg, summary(status="deadlock", stuck_threads=("t",)), False)
        feed(agg, summary(), True)
        agg.progress.note_shard_done("sh")
        registry = agg.registry()
        runs = registry.get("campaign_runs_total")
        assert runs.get(status="deadlock") == 1
        assert registry.get("campaign_duplicate_schedules_total").get() == 1
        shards = registry.get("campaign_shards_total")
        assert shards.get(state="completed") == 1
        info = registry.get("campaign_info")
        assert info is not None

    def test_per_run_metrics_folded_in(self):
        agg = LiveAggregator()
        feed(agg, summary(metrics={"vm_steps_total": 3}), False)
        assert agg.registry().get("vm_steps_total").get() == 3


class TestSubscribers:
    def test_run_frames_and_end_published(self):
        agg = LiveAggregator()
        subscriber = agg.subscribe()
        agg.note_run(summary(status="stuck", stuck_threads=("t",)), False, "sh")
        agg.close()
        first = subscriber.get_nowait()
        assert first["kind"] == "run"
        assert first["shard"] == "sh"
        assert first["status"] == "stuck"
        assert first["seq"] == 1
        assert subscriber.get_nowait()["kind"] == "end"

    def test_slow_subscriber_drops_oldest(self):
        agg = LiveAggregator()
        subscriber = agg.subscribe()
        for index in range(300):  # depth is 256
            agg.note_run(summary(index=index, decisions=(index,)), False)
        frames = []
        while not subscriber.empty():
            frames.append(subscriber.get_nowait())
        assert len(frames) == 256
        assert frames[-1]["seq"] == 300  # newest survives, oldest dropped

    def test_unsubscribe_stops_delivery(self):
        agg = LiveAggregator()
        subscriber = agg.subscribe()
        agg.unsubscribe(subscriber)
        agg.note_run(summary(), False)
        assert subscriber.empty()


class TestConcurrentReads:
    def test_status_never_torn_while_the_state_folds(self):
        """HTTP reads take the fold's lock, so a document never shows a
        run counted without its status (a torn read would)."""
        agg = LiveAggregator()
        stop = threading.Event()
        torn = []

        def read():
            while not stop.is_set():
                doc = agg.status()
                if sum(doc["statuses"].values()) != doc["runs"]:
                    torn.append(doc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        readers = [threading.Thread(target=read, daemon=True) for _ in range(4)]
        try:
            for reader in readers:
                reader.start()
            for index in range(3000):
                s = summary(index=index, decisions=(index,))
                feed(agg, s, duplicate=index % 7 == 0)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for reader in readers:
                reader.join(timeout=10.0)
        assert not any(reader.is_alive() for reader in readers)
        assert not torn
        assert agg.status()["runs"] == agg.runs


class TestCampaignInfo:
    def test_labels_include_version_and_shards(self):
        registry = MetricsRegistry()
        gauge = attach_campaign_info(
            registry, {"fingerprint": "abc", "factory": "pc", "mode": "pct"}, 8
        )
        from repro import __version__

        assert gauge.get(
            fingerprint="abc",
            factory="pc",
            mode="pct",
            version=__version__,
            shards="8",
        ) == 1

    def test_empty_info_attaches_nothing(self):
        registry = MetricsRegistry()
        assert attach_campaign_info(registry, {}, 0) is None
        assert registry.get("campaign_info") is None
