"""Tests for the live campaign progress tracker."""

import io

from repro.engine.progress import ProgressTracker, format_duration
from repro.testing.explorer import RunSummary


def ok_run(index):
    return RunSummary(index=index, status="completed", decisions=(index,))


def stuck_run(index, threads=("c0",)):
    return RunSummary(
        index=index, status="stuck", decisions=(index,), stuck_threads=threads
    )


def contended_run(index, monitor, ticks):
    """A clean run whose metrics report ``ticks`` contended on ``monitor``."""
    return RunSummary(
        index=index,
        status="completed",
        decisions=(index,),
        metrics={"vm_monitor_contended_ticks_total": {monitor: ticks}},
    )


class HalfCovered:
    """Stands in for a CoverageMatrix with one run and half its arcs hit."""

    rows = [None]

    def coverage_fraction(self):
        return 0.5


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestCounters:
    def test_runs_failures_signatures(self):
        tracker = ProgressTracker(total_runs=10)
        tracker.note_run(ok_run(0))
        tracker.note_run(stuck_run(1))
        tracker.note_run(stuck_run(2))  # same signature
        tracker.note_run(stuck_run(3, threads=("c1",)))
        assert tracker.runs == 4
        assert tracker.failures == 3
        assert len(tracker.signatures) == 2

    def test_duplicates_counted_separately(self):
        tracker = ProgressTracker()
        tracker.note_run(ok_run(0))
        tracker.note_run(ok_run(0), duplicate=True)
        assert tracker.runs == 2
        assert tracker.duplicates == 1

    def test_failing_duplicate_is_not_a_failure(self):
        tracker = ProgressTracker()
        tracker.note_run(stuck_run(0))
        tracker.note_run(stuck_run(0), duplicate=True)
        assert tracker.runs == 2
        assert tracker.failures == 1
        assert tracker.statuses == {"stuck": 1}

    def test_shard_lifecycle(self):
        tracker = ProgressTracker()
        tracker.shards_total = 5
        tracker.note_shards_resumed(["a", "b"])
        tracker.note_shard_done("c")
        tracker.note_shard_requeued("d")
        tracker.note_shard_failed("d", error="boom")
        assert tracker.shards_done == 3  # 2 resumed + 1 fresh
        assert tracker.shards_requeued == 1
        assert tracker.shards_failed == ["d"]
        assert tracker.shards["a"].state == "resumed"
        assert tracker.shards["d"].attempts == 2
        assert tracker.shards["d"].error == "boom"

    def test_runs_per_sec(self):
        clock = FakeClock()
        tracker = ProgressTracker(clock=clock)
        for i in range(50):
            tracker.note_run(ok_run(i))
        clock.now += 2.0
        assert tracker.runs_per_sec() == 50 / 2.0


class TestEta:
    def test_none_without_budget(self):
        tracker = ProgressTracker()
        tracker.note_run(ok_run(0))
        assert tracker.eta_seconds() is None

    def test_none_before_first_run(self):
        assert ProgressTracker(total_runs=10).eta_seconds() is None

    def test_remaining_over_rate(self):
        clock = FakeClock()
        tracker = ProgressTracker(total_runs=100, clock=clock)
        for i in range(20):
            tracker.note_run(ok_run(i))
        clock.now += 4.0  # 5 runs/s observed, 80 remaining
        assert tracker.eta_seconds() == 80 / 5.0

    def test_zero_once_budget_met(self):
        clock = FakeClock()
        tracker = ProgressTracker(total_runs=2, clock=clock)
        tracker.note_run(ok_run(0))
        tracker.note_run(ok_run(1))
        clock.now += 1.0
        assert tracker.eta_seconds() == 0.0

    def test_format_duration(self):
        fmt = format_duration
        assert fmt(9.4) == "9s"
        assert fmt(75) == "1m15s"
        assert fmt(3660) == "1h01m"


class TestRendering:
    def test_render_mentions_everything(self):
        tracker = ProgressTracker(total_runs=20)
        tracker.shards_total = 4
        tracker.note_run(stuck_run(0))
        tracker.coverage = HalfCovered()
        line = tracker.render()
        assert "runs 1/20" in line
        assert "failures 1" in line
        assert "signatures 1" in line
        assert "coverage 50%" in line
        assert "shards 0/4" in line

    def test_emit_rate_limited(self):
        clock = FakeClock()
        stream = io.StringIO()
        tracker = ProgressTracker(stream=stream, interval=1.0, clock=clock)
        tracker.maybe_emit()
        tracker.maybe_emit()  # suppressed: same instant
        assert stream.getvalue().count("\n") == 1
        clock.now += 1.5
        tracker.maybe_emit()
        assert stream.getvalue().count("\n") == 2

    def test_force_bypasses_rate_limit(self):
        stream = io.StringIO()
        tracker = ProgressTracker(stream=stream, interval=60.0)
        tracker.maybe_emit(force=True)
        tracker.maybe_emit(force=True)
        assert stream.getvalue().count("\n") == 2

    def test_no_stream_is_silent(self):
        tracker = ProgressTracker()
        tracker.maybe_emit(force=True)  # must not raise
        tracker.emit_final()  # must not raise either

    def test_render_includes_eta_and_hot_monitor(self):
        clock = FakeClock()
        tracker = ProgressTracker(total_runs=100, clock=clock)
        for i in range(19):
            tracker.note_run(ok_run(i))
        tracker.note_run(contended_run(19, "Buffer", 120.0))
        clock.now += 4.0
        tracker.classes["FF-T5"] = 3
        line = tracker.render()
        assert "eta 16s" in line
        assert "classes FF-T5:3" in line
        assert "hot Buffer:120" in line


class TestFinalSummary:
    def test_render_final(self):
        clock = FakeClock()
        tracker = ProgressTracker(total_runs=4, clock=clock)
        tracker.note_run(contended_run(0, "Queue", 42.0))
        tracker.note_run(stuck_run(1))
        clock.now += 2.0
        tracker.classes["FF-T2"] = 1
        tracker.coverage = HalfCovered()
        line = tracker.render_final()
        assert line.startswith("done: 2 runs in 2s (1.0/s)")
        assert "failures 1 (1 signature(s))" in line
        assert "classes FF-T2:1" in line
        assert "coverage 50%" in line
        assert "hottest monitor Queue (42 ticks)" in line

    def test_final_omits_absent_sections(self):
        tracker = ProgressTracker()
        line = tracker.render_final()
        assert "classes" not in line
        assert "coverage" not in line
        assert "hottest" not in line

    def test_emit_final_ignores_rate_limit(self):
        import io

        stream = io.StringIO()
        tracker = ProgressTracker(stream=stream, interval=60.0)
        tracker.maybe_emit()  # consumes the rate-limit slot
        tracker.emit_final()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[-1].startswith("done:")


class TestJsonMode:
    def _tracker(self, stream, **kwargs):
        clock = FakeClock()
        tracker = ProgressTracker(
            total_runs=10,
            stream=stream,
            interval=0.0,
            clock=clock,
            json_mode=True,
            **kwargs,
        )
        return tracker, clock

    def test_heartbeat_is_one_json_object_per_line(self):
        import json

        stream = io.StringIO()
        tracker, clock = self._tracker(stream)
        tracker.shards_total = 4
        clock.now += 2.0
        tracker.note_run(ok_run(0))
        tracker.note_run(stuck_run(1))
        tracker.maybe_emit(force=True)
        (line,) = stream.getvalue().splitlines()
        record = json.loads(line)
        assert record["runs"] == 2
        assert record["total_runs"] == 10
        assert record["failures"] == 1
        assert record["signatures"] == 1
        assert record["runs_per_sec"] == 1.0
        assert record["eta_seconds"] == 8.0
        assert record["elapsed_seconds"] == 2.0
        assert record["shards"] == {
            "done": 0,
            "total": 4,
            "failed": 0,
            "requeued": 0,
            "resumed": 0,
        }
        assert "final" not in record

    def test_final_record_flagged(self):
        import json

        stream = io.StringIO()
        tracker, _ = self._tracker(stream)
        tracker.emit_final()
        record = json.loads(stream.getvalue())
        assert record["final"] is True

    def test_optional_fields_appear_when_populated(self):
        import json

        stream = io.StringIO()
        tracker, _ = self._tracker(stream)
        tracker.classes["DD.AB"] = 2
        tracker.note_run(contended_run(0, "Buffer", 17.0))
        tracker.coverage = HalfCovered()
        tracker.note_shard_requeued("sh-1")
        tracker.maybe_emit(force=True)
        record = json.loads(stream.getvalue())
        assert record["classes"] == {"DD.AB": 2}
        assert record["coverage"] == 0.5
        assert record["top_contended"] == {"monitor": "Buffer", "ticks": 17.0}
        assert record["attempts"] == {"sh-1": 2}

    def test_text_mode_unchanged_by_default(self):
        stream = io.StringIO()
        tracker = ProgressTracker(total_runs=10, stream=stream, interval=0.0)
        tracker.note_run(ok_run(0))
        tracker.maybe_emit(force=True)
        assert stream.getvalue().startswith("runs 1/10")


class TestViewsAgree:
    def test_heartbeat_failures_equal_result_and_status(self):
        """The final heartbeat counts unique failing schedules, as the
        result and /status do (a failing duplicate schedule is not a
        second failure)."""
        import json

        from repro.engine import CampaignSpec, run_campaign
        from repro.obs.live import LiveAggregator

        stream = io.StringIO()
        tracker = ProgressTracker(
            total_runs=60, stream=stream, interval=0.0, json_mode=True
        )
        telemetry = LiveAggregator()
        spec = CampaignSpec(
            factory="racing-locks",
            mode="random",
            budget=60,
            shard_size=10,
            workers=0,
            detect=True,
        )
        result = run_campaign(spec, progress=tracker, telemetry=telemetry)
        final = json.loads(stream.getvalue().splitlines()[-1])
        assert final["final"] is True
        assert result.duplicates > 0  # the case where the counts diverged
        assert final["failures"] == len(result.failures())
        assert final["failures"] == telemetry.status()["failures"]
        assert final["classes"] == dict(sorted(result.class_counts.items()))
