"""Tests for the streaming pipeline itself: early abort, summaries,
HB-vs-lockset dedup, and attaching to a kernel."""

import pytest

from repro.detect import (
    DetectionSummary,
    HbRace,
    OnlineDetector,
    RaceReport,
    dedupe_hb_races,
)
from repro.detect.online import DetectorPipeline
from repro.engine.workloads import WORKLOADS
from repro.vm import Acquire, Kernel, RandomScheduler, Release, RunStatus, Tick
from repro.vm.events import EventKind
from repro.vm.trace import AccessRecord


def _race(component="C", field="x"):
    return RaceReport(
        component=component,
        field=field,
        first_thread="a",
        second_thread="b",
        access=AccessRecord(
            thread="b",
            component=component,
            field=field,
            is_write=True,
            locks_held=frozenset(),
            seq=3,
            time=1,
        ),
    )


def _hb_race(component="C", field="x"):
    return HbRace(
        component=component,
        field=field,
        first_thread="a",
        first_seq=1,
        first_is_write=True,
        second_thread="b",
        second_seq=3,
        second_is_write=True,
    )


class TestDedupeHbRaces:
    def test_shared_field_deduped(self):
        assert dedupe_hb_races([_hb_race()], [_race()]) == []

    def test_hb_only_field_kept(self):
        hb_only = _hb_race(field="y")
        assert dedupe_hb_races([hb_only, _hb_race()], [_race()]) == [hb_only]

    def test_component_distinguishes(self):
        other = _hb_race(component="D")
        assert dedupe_hb_races([other], [_race()]) == [other]

    def test_empty_inputs(self):
        assert dedupe_hb_races([], []) == []
        assert dedupe_hb_races([], [_race()]) == []


class TestDetectionSummary:
    def test_summary_is_the_report_projection(self):
        """``summary`` reads counts and primary classes without building
        the report; it must equal the projection of the full report, on
        runs with races, stuck threads, starvation, completion-time
        violations, premature re-entries and deadlocks alike."""
        from repro.detect import OnlineReentryDetector, default_detectors
        from tests.detect.test_online_equivalence import _prefix_runs

        classes = set()
        for workload, result, expectations in _prefix_runs():
            detectors = [*default_detectors(expectations), OnlineReentryDetector()]
            pipeline = DetectorPipeline(detectors)
            pipeline.fold(result.trace)
            summary = pipeline.summary(result)
            report = pipeline.report(result)
            projected = DetectionSummary.from_report(report, pipeline.aborted)
            assert summary == projected, workload
            classes.update(summary.classes)
        assert {"FF-T1", "FF-T4", "FF-T5"} <= classes

    def test_dict_round_trip(self):
        summary = DetectionSummary(
            races=2,
            hb_races=1,
            deadlock_cycle=("t1", "t2"),
            classes=("FF-T4", "FF-T1"),
            aborted="wait-for cycle: t1 -> t2",
        )
        assert DetectionSummary.from_dict(summary.to_dict()) == summary

    def test_clean(self):
        assert DetectionSummary().clean
        assert not DetectionSummary(races=1).clean
        assert not DetectionSummary(classes=("FF-T5",)).clean


def deadlock_plus_spinner(scheduler) -> Kernel:
    """The deadlock pair racing a long-running third thread: without an
    early abort the kernel must run the spinner to completion before it
    can diagnose the (long-since permanent) deadlock."""
    kernel = Kernel(scheduler=scheduler)
    kernel.new_monitor("m1")
    kernel.new_monitor("m2")

    def worker(first, second):
        yield Acquire(first)
        yield Tick()
        yield Acquire(second)
        yield Release(second)
        yield Release(first)

    def spinner():
        for _ in range(3000):
            yield Tick()

    kernel.spawn(worker, "m1", "m2", name="a")
    kernel.spawn(worker, "m2", "m1", name="b")
    kernel.spawn(spinner, name="slow")
    return kernel


def _deadlocking_seed():
    for seed in range(64):
        result = deadlock_plus_spinner(RandomScheduler(seed=seed)).run()
        if result.status is RunStatus.DEADLOCK:
            return seed, result.steps
    pytest.fail("no deadlocking seed found")


def _attached(factory, seed, *detectors, trace_mode=None, **options):
    """A kernel from ``factory`` streaming into a fresh pipeline (the
    default detectors unless ``detectors`` are given)."""
    kernel = factory(RandomScheduler(seed=seed))
    if trace_mode is not None:
        kernel.trace_mode = trace_mode
    pipeline = DetectorPipeline(list(detectors) or None, **options).attach(kernel)
    return kernel, pipeline


class TestEarlyStop:
    def test_abort_saves_steps_and_keeps_diagnosis(self):
        seed, natural_steps = _deadlocking_seed()
        kernel, pipeline = _attached(deadlock_plus_spinner, seed, early_stop=True)
        result = kernel.run()
        # Same diagnosis, far fewer steps: the wait-for cycle is permanent,
        # so aborting cannot change the outcome.
        assert result.status is RunStatus.DEADLOCK
        assert result.abort_reason is not None
        assert "wait-for cycle" in result.abort_reason
        assert result.steps < natural_steps
        summary = pipeline.summary(result)
        assert summary.aborted == result.abort_reason
        assert summary.deadlock_cycle
        assert "FF-T4" in summary.classes

    def test_early_stop_disabled_runs_to_quiescence(self):
        seed, natural_steps = _deadlocking_seed()
        kernel, pipeline = _attached(deadlock_plus_spinner, seed, early_stop=False)
        result = kernel.run()
        assert result.status is RunStatus.DEADLOCK
        assert result.abort_reason is None
        assert result.steps == natural_steps
        assert pipeline.aborted is None


class TestAttachedPipeline:
    def test_invalid_trace_mode_rejected_at_build(self):
        from repro.run import RunConfig, RunConfigError, RunExecutor

        with pytest.raises(ValueError, match="trace_mode"):
            Kernel(trace_mode="bogus")
        with pytest.raises(RunConfigError, match="trace_mode"):
            RunExecutor(RunConfig(workload="pc-ok", detect=True, trace_mode="bogus"))

    def test_events_seen_counts_stream(self):
        kernel, pipeline = _attached(WORKLOADS["pc-ok"], 0, trace_mode="none")
        kernel.run()
        assert pipeline.events_seen > 0

    def test_custom_detector_factory(self):
        from repro.detect import OnlineDetector

        class CountingDetector(OnlineDetector):
            name = "counting"

            def __init__(self):
                self.n = 0

            def on_event(self, event):
                self.n += 1

            def finish(self):
                return self.n

        kernel, pipeline = _attached(WORKLOADS["pc-ok"], 0, CountingDetector())
        kernel.run()
        findings = pipeline.findings()
        assert findings == {"counting": pipeline.events_seen}


class KindLog(OnlineDetector):
    """Records every event it is handed; ``kinds`` is left at the
    protocol default (``None``: every kind)."""

    name = "kind-log"

    def __init__(self):
        self.seen = []

    def on_event(self, event):
        self.seen.append(event)

    def finish(self):
        return len(self.seen)


class AbortOnCallEnd(OnlineDetector):
    """Asks to abort after its ``abort_after``-th CALL_END, and counts
    how often it is polled."""

    name = "abort-on-call-end"
    kinds = frozenset({EventKind.CALL_END})

    def __init__(self, abort_after=2):
        self.abort_after = abort_after
        self.ends = 0
        self.polls = 0

    def on_event(self, event):
        self.ends += 1

    def abort_reason(self):
        self.polls += 1
        if self.ends >= self.abort_after:
            return f"saw {self.ends} call ends"
        return None

    def finish(self):
        return self.ends


class Batches(OnlineDetector):
    """Records the size of each batch it is handed."""

    name = "batches"

    def __init__(self):
        self.sizes = []

    def fold(self, events):
        self.sizes.append(len(events))

    def finish(self):
        return len(self.sizes)


class TestKindRouting:
    def test_detector_without_kinds_sees_every_event(self):
        log = KindLog()
        kernel, pipeline = _attached(WORKLOADS["pc-bug"], 3, log)
        result = kernel.run()
        assert log.seen == list(result.trace)
        assert pipeline.events_seen == len(result.trace)

    def test_on_event_routes_like_attach(self):
        """Replay through ``on_event`` walks the same table the attached
        kernel fills: identical findings, and every event counted."""
        result = WORKLOADS["pc-bug"](RandomScheduler(seed=3)).run()
        kernel, pipeline = _attached(WORKLOADS["pc-bug"], 3, early_stop=False)
        kernel.run()
        replayed = DetectorPipeline(early_stop=False)
        for event in result.trace:
            replayed.on_event(event)
        assert replayed.events_seen == len(result.trace)
        assert replayed.findings() == pipeline.findings()
        assert replayed.report(result) == pipeline.report(result)

    def test_events_seen_counts_from_attach(self):
        kernel = WORKLOADS["pc-ok"](RandomScheduler(seed=0))
        kernel.emit("main", EventKind.YIELD)  # before attach: not counted
        pipeline = DetectorPipeline().attach(kernel)
        kernel.run()
        assert pipeline.events_seen == kernel.events_emitted - 1
        pipeline.reset()
        assert pipeline.events_seen == 0

    def test_custom_abort_reason_honoured(self):
        """A custom abort-capable detector is polled after each batch:
        pc-ok's run is one batch, handed over as the run ends, so the
        reason is reported and the run is not shortened."""
        detector = AbortOnCallEnd(abort_after=2)
        kernel, pipeline = _attached(WORKLOADS["pc-ok"], 0, detector)
        result = kernel.run()
        # polled once, after the one batch held every call end
        assert detector.ends > 2
        assert result.abort_reason == f"saw {detector.ends} call ends"
        assert pipeline.aborted == result.abort_reason
        assert pipeline.summary(result).aborted == result.abort_reason
        assert detector.polls == 1
        natural = WORKLOADS["pc-ok"](RandomScheduler(seed=0)).run()
        assert result.steps == natural.steps

    def test_abort_polled_once_per_batch(self):
        detector, batches = AbortOnCallEnd(abort_after=10**6), Batches()
        seed = 2  # a run the spinner keeps going for several batches
        kernel, _ = _attached(deadlock_plus_spinner, seed, detector, batches)
        result = kernel.run()
        assert result.abort_reason is None
        assert len(batches.sizes) > 2
        assert detector.polls == len(batches.sizes)
        assert sum(batches.sizes) == kernel.events_emitted

    def test_abort_not_polled_without_early_stop(self):
        detector = AbortOnCallEnd(abort_after=1)
        kernel, _ = _attached(WORKLOADS["pc-ok"], 0, detector, early_stop=False)
        result = kernel.run()
        assert result.abort_reason is None
        assert detector.polls == 0


#: seed -> (status, steps, abort reason) of pipeline runs with early stop,
#: recorded before detection was routed by kind; routing must not move
#: the step an abort lands on.
PINNED_ABORTS = {
    "deadlock-pair": {
        0: ("completed", 16, None),
        1: ("deadlock", 8, "wait-for cycle: t1 -> t2"),
        2: ("completed", 16, None),
        3: ("deadlock", 8, "wait-for cycle: t1 -> t2"),
        4: ("deadlock", 8, "wait-for cycle: t1 -> t2"),
        5: ("deadlock", 8, "wait-for cycle: t1 -> t2"),
    },
    "mixed-deadlock": {
        0: ("deadlock", 6, "wait-for cycle: t1 -> t2"),
        1: ("deadlock", 6, "wait-for cycle: t1 -> t2"),
        2: ("completed", 12, None),
        3: ("deadlock", 6, "wait-for cycle: t1 -> t2"),
        9: ("completed", 12, None),
        10: ("deadlock", 6, "wait-for cycle: t1 -> t2"),
    },
    "deadlock-plus-spinner": {
        0: ("deadlock", 11, "wait-for cycle: a -> b"),
        2: ("completed", 3013, None),
        4: ("deadlock", 7, "wait-for cycle: a -> b"),
        5: ("deadlock", 12, "wait-for cycle: a -> b"),
        8: ("deadlock", 6, "wait-for cycle: a -> b"),
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_ABORTS))
def test_aborted_runs_pinned(name):
    factory = WORKLOADS.get(name, deadlock_plus_spinner)
    for seed, expected in PINNED_ABORTS[name].items():
        kernel, pipeline = _attached(factory, seed, trace_mode="none")
        result = kernel.run()
        assert (result.status.value, result.steps, result.abort_reason) == expected
        assert pipeline.aborted == expected[2]


class TestAbortPollRouting:
    def test_waitgraph_polled_after_each_batch(self):
        """The wait-for detector folds like every detector and is polled
        once per batch: once for a pc-bug run, which never aborts, and
        after each hand-over of a run that closes a cycle."""
        from repro.detect.online import default_detectors
        from repro.detect.waitgraph import OnlineWaitGraphDetector

        class Counting(OnlineWaitGraphDetector):
            polls = 0

            def abort_reason(self):
                self.polls += 1
                return super().abort_reason()

        def counted():
            counting, batches = Counting(), Batches()
            detectors = [
                counting if d.name == "waitgraph" else d
                for d in default_detectors()
            ]
            return counting, batches, [*detectors, batches]

        counting, batches, detectors = counted()
        kernel, pipeline = _attached(WORKLOADS["pc-bug"], 0, *detectors)
        kernel.run()
        assert pipeline.aborted is None
        assert counting.polls == len(batches.sizes) == 1

        seed, _ = _deadlocking_seed()
        counting, batches, detectors = counted()
        kernel, pipeline = _attached(deadlock_plus_spinner, seed, *detectors)
        result = kernel.run()
        assert pipeline.aborted == result.abort_reason is not None
        assert counting.polls == len(batches.sizes)
