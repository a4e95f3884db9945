"""Workload profiler: timed detectors and the aggregated report."""

from repro.detect.online import OnlineDetector
from repro.engine.workloads import resolve_factory
from repro.obs.profile import TimedDetector, profile_workload
from repro.vm.events import Event, EventKind


class _CountingDetector(OnlineDetector):
    name = "counting"

    def __init__(self):
        self.seen = 0
        self.finished = False

    def on_event(self, event):
        self.seen += 1

    def finish(self):
        self.finished = True
        return self.seen


class TestTimedDetector:
    def _event(self) -> Event:
        return Event(seq=0, time=0, thread="t", kind=EventKind.YIELD)

    def test_delegates_and_meters(self):
        inner = _CountingDetector()
        timed = TimedDetector(inner)
        assert timed.name == "counting"
        timed.on_event(self._event())
        timed.on_event(self._event())
        assert inner.seen == 2
        assert timed.events == 2
        assert timed.wall_seconds >= 0
        assert timed.finish() == 2 and inner.finished
        assert timed.abort_reason() is None


class TestProfileWorkload:
    def test_detecting_profile_keeps_no_trace(self):
        """The profiler switches each kernel to ``trace_mode="none"``
        after building it; its detectors still see every event."""
        kernels = []

        def factory(scheduler):
            kernels.append(resolve_factory("pc-bug")(scheduler))
            return kernels[-1]

        report = profile_workload(factory, runs=3, detect=True)
        assert len(kernels) == 3
        for kernel in kernels:
            assert kernel.trace_mode == "none"
            assert len(kernel.trace) == 0 and kernel.events_emitted > 0
        assert all(events > 0 for _, events in report.detector_wall.values())

    def test_profile_pc_bug(self):
        report = profile_workload(
            resolve_factory("pc-bug"), workload="pc-bug", runs=4
        )
        assert report.runs == 4
        assert sum(report.statuses.values()) == 4
        assert report.registry.counter("vm_events_total").total > 0
        assert report.registry.histogram("run_wall_seconds").count() == 4
        assert report.top_monitors()  # pc-bug contends on its buffer monitor
        assert report.top_threads()
        breakdown = report.detector_breakdown()
        assert breakdown and abs(sum(share for _, _, share in breakdown) - 1.0) < 1e-9

    def test_describe_renders_tables(self):
        report = profile_workload(
            resolve_factory("pc-bug"), workload="pc-bug", runs=3
        )
        text = report.describe()
        assert "profile: pc-bug — 3 runs" in text
        assert "top monitors by contention" in text
        assert "top threads by blocked time" in text
        assert "detector time breakdown" in text
        assert "peak event rate" in text

    def test_no_detect_skips_breakdown(self):
        report = profile_workload(
            resolve_factory("pc-ok"), workload="pc-ok", runs=2, detect=False
        )
        assert report.detector_wall == {}
        assert "detector time breakdown" not in report.describe()
