"""Telemetry frames: the run constructor, wire round trip, default elision."""

from repro.obs.live.frames import TelemetryFrame
from repro.testing.explorer import RunSummary


def summary(**kwargs):
    defaults = dict(index=0, status="completed", decisions=(0, 1, 2))
    defaults.update(kwargs)
    return RunSummary(**defaults)


class TestConstructors:
    def test_run_frame_carries_summary_and_counters(self):
        s = summary(status="deadlock", stuck_threads=("a", "b"))
        frame = TelemetryFrame.for_run("sh-0", s, runs=7, timeouts=2)
        assert frame.shard == "sh-0"
        assert frame.runs == 7
        assert frame.timeouts == 2
        assert frame.summary is s


class TestWireFormat:
    def test_round_trip_run_frame(self):
        s = summary(
            status="stuck",
            seed=42,
            stuck_threads=("cons",),
            detection={"classes": ["NoN"]},
            metrics={"metrics": []},
        )
        frame = TelemetryFrame.for_run("sh-0", s, runs=3, timeouts=1)
        back = TelemetryFrame.from_dict(frame.to_dict())
        assert back == frame
        assert back.summary == s

    def test_round_trip_frame_without_summary(self):
        frame = TelemetryFrame(shard="sh", runs=5)
        back = TelemetryFrame.from_dict(frame.to_dict())
        assert back == frame
        assert back.summary is None

    def test_to_dict_elides_defaults(self):
        frame = TelemetryFrame(shard="sh")
        assert frame.to_dict() == {"shard": "sh"}

    def test_embedded_summary_dict_matches_legacy_payload(self):
        # The frame's summary dict is byte-identical to the old
        # ("run", shard, summary_dict) payload — journal compatibility.
        s = summary(seed=7)
        frame = TelemetryFrame.for_run("sh", s, runs=1)
        assert frame.to_dict()["summary"] == s.to_dict()
