"""Workload profiler: timed detectors and the aggregated report."""

from repro.detect.online import DetectorPipeline, OnlineDetector, default_detectors
from repro.engine.workloads import resolve_factory
from repro.obs.profile import TimedDetector, profile_workload
from repro.vm.events import Event, EventKind
from repro.vm.scheduler import RandomScheduler


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

    def test_routed_and_polled_as_the_bare_detectors(self):
        """A pipeline of wrapped detectors routes every kind to as many
        handlers, abort polls included, as the bare pipeline."""
        bare = DetectorPipeline(default_detectors())
        timed = DetectorPipeline([TimedDetector(d) for d in default_detectors()])
        widths = {kind: len(handlers) for kind, handlers in bare.routes.items()}
        assert {kind: len(h) for kind, h in timed.routes.items()} == widths


class TestProfileWorkload:
    def test_detecting_profile_keeps_no_trace(self):
        """The profiler switches each kernel to ``trace_mode="none"``
        after building it; its detectors still see the events routed to
        them (none, for the completion checker without expectations)."""
        kernels = []

        def factory(scheduler):
            kernels.append(resolve_factory("pc-bug")(scheduler))
            return kernels[-1]

        report = profile_workload(factory, runs=3, detect=True)
        assert len(kernels) == 3
        for kernel in kernels:
            assert kernel.trace_mode == "none"
            assert len(kernel.trace) == 0 and kernel.events_emitted > 0
        events = {name: n for name, (_, n) in report.detector_wall.items()}
        assert events.pop("completion") == 0
        assert all(n > 0 for n in events.values())

    def test_each_detector_is_metered_over_its_routed_events(self):
        """A detector's metered ``events`` equal what a bare pipeline
        routes it on the same seeds."""
        runs = 6
        report = profile_workload(resolve_factory("pc-bug"), runs=runs)
        routed = {}
        for seed in range(runs):
            kernel = resolve_factory("pc-bug")(RandomScheduler(seed))
            pipeline = DetectorPipeline(default_detectors()).attach(kernel)
            kernel.run()
            for detector in pipeline.detectors:
                routed[detector.name] = routed.get(detector.name, 0) + sum(
                    detector.on_event in pipeline.routes.get(event.kind, ())
                    for event in kernel.trace.events
                )
        metered = {name: n for name, (_, n) in report.detector_wall.items()}
        assert metered == routed
        assert metered["completion"] == 0
        assert all(n > 0 for name, n in metered.items() if name != "completion")

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
