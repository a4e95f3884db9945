"""Tests for the streaming pipeline itself: early abort, summaries,
HB-vs-lockset dedup, and the factory wrapper."""

import pytest

from repro.detect import (
    DetectionSummary,
    HbRace,
    OnlineDetector,
    RaceReport,
    dedupe_hb_races,
)
from repro.detect.online import DetectorPipeline, PipelineFactory
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


class TestEarlyStop:
    def test_abort_saves_steps_and_keeps_diagnosis(self):
        seed, natural_steps = _deadlocking_seed()
        pf = PipelineFactory(deadlock_plus_spinner, early_stop=True)
        kernel = pf(RandomScheduler(seed=seed))
        result = kernel.run()
        # Same diagnosis, far fewer steps: the wait-for cycle is permanent,
        # so aborting cannot change the outcome.
        assert result.status is RunStatus.DEADLOCK
        assert result.abort_reason is not None
        assert "wait-for cycle" in result.abort_reason
        assert result.steps < natural_steps
        summary = pf.pipeline.summary(result)
        assert summary.aborted == result.abort_reason
        assert summary.deadlock_cycle
        assert "FF-T4" in summary.classes

    def test_early_stop_disabled_runs_to_quiescence(self):
        seed, natural_steps = _deadlocking_seed()
        pf = PipelineFactory(deadlock_plus_spinner, early_stop=False)
        result = pf(RandomScheduler(seed=seed)).run()
        assert result.status is RunStatus.DEADLOCK
        assert result.abort_reason is None
        assert result.steps == natural_steps
        assert pf.pipeline.aborted is None


class TestPipelineFactory:
    def test_invalid_trace_mode_rejected_at_build(self):
        pf = PipelineFactory(WORKLOADS["pc-ok"], trace_mode="bogus")
        with pytest.raises(ValueError, match="trace_mode"):
            pf(RandomScheduler(seed=0))

    def test_fresh_pipeline_per_kernel(self):
        pf = PipelineFactory(WORKLOADS["pc-ok"])
        pf(RandomScheduler(seed=0))
        first = pf.pipeline
        pf(RandomScheduler(seed=1))
        assert pf.pipeline is not first

    def test_events_seen_counts_stream(self):
        pf = PipelineFactory(WORKLOADS["pc-ok"], trace_mode="none")
        kernel = pf(RandomScheduler(seed=0))
        kernel.run()
        assert pf.pipeline.events_seen > 0

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

        pf = PipelineFactory(
            WORKLOADS["pc-ok"], detectors=lambda: [CountingDetector()]
        )
        kernel = pf(RandomScheduler(seed=0))
        kernel.run()
        findings = pf.pipeline.findings()
        assert findings == {"counting": pf.pipeline.events_seen}


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
        self.abort_seq = None

    def on_event(self, event):
        self.ends += 1
        if self.ends == self.abort_after:
            self.abort_seq = event.seq

    def abort_reason(self):
        self.polls += 1
        if self.ends >= self.abort_after:
            return f"saw {self.ends} call ends"
        return None

    def finish(self):
        return self.ends


class TestKindRouting:
    def test_detector_without_kinds_sees_every_event(self):
        log = KindLog()
        pf = PipelineFactory(WORKLOADS["pc-bug"], detectors=lambda: [log])
        result = pf(RandomScheduler(seed=3)).run()
        assert log.seen == list(result.trace)
        assert pf.pipeline.events_seen == len(result.trace)

    def test_on_event_routes_like_attach(self):
        """Replay through ``on_event`` walks the same table the attached
        kernel fills: identical findings, and every event counted."""
        result = WORKLOADS["pc-bug"](RandomScheduler(seed=3)).run()
        pf = PipelineFactory(WORKLOADS["pc-bug"], early_stop=False)
        pf(RandomScheduler(seed=3)).run()
        replayed = DetectorPipeline(early_stop=False)
        for event in result.trace:
            replayed.on_event(event)
        assert replayed.events_seen == len(result.trace)
        assert replayed.findings() == pf.pipeline.findings()
        assert replayed.report(result) == pf.pipeline.report(result)

    def test_events_seen_counts_from_attach(self):
        kernel = WORKLOADS["pc-ok"](RandomScheduler(seed=0))
        kernel.emit("main", EventKind.YIELD)  # before attach: not counted
        pipeline = DetectorPipeline().attach(kernel)
        kernel.run()
        assert pipeline.events_seen == kernel.events_emitted - 1
        pipeline.reset()
        assert pipeline.events_seen == 0

    def test_custom_abort_reason_honoured(self):
        detector = AbortOnCallEnd(abort_after=2)
        pf = PipelineFactory(WORKLOADS["pc-ok"], detectors=lambda: [detector])
        result = pf(RandomScheduler(seed=0)).run()
        assert result.abort_reason == "saw 2 call ends"
        assert pf.pipeline.aborted == result.abort_reason
        assert pf.pipeline.summary(result).aborted == result.abort_reason
        # the run stopped at the end of the aborting event's step
        aborting = result.trace[detector.abort_seq]
        assert aborting.kind is EventKind.CALL_END
        assert result.trace[-1].time == aborting.time == result.steps
        natural = WORKLOADS["pc-ok"](RandomScheduler(seed=0)).run()
        assert result.steps < natural.steps

    def test_abort_polled_only_after_own_kinds(self):
        detector = AbortOnCallEnd(abort_after=10**6)
        pf = PipelineFactory(WORKLOADS["pc-ok"], detectors=lambda: [detector])
        result = pf(RandomScheduler(seed=0)).run()
        ends = sum(e.kind is EventKind.CALL_END for e in result.trace)
        assert result.abort_reason is None
        assert detector.polls == detector.ends == ends

    def test_abort_not_polled_without_early_stop(self):
        detector = AbortOnCallEnd(abort_after=1)
        pf = PipelineFactory(
            WORKLOADS["pc-ok"], early_stop=False, detectors=lambda: [detector]
        )
        result = pf(RandomScheduler(seed=0)).run()
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
        pf = PipelineFactory(factory, trace_mode="none")
        result = pf(RandomScheduler(seed=seed)).run()
        assert (result.status.value, result.steps, result.abort_reason) == expected
        assert pf.pipeline.aborted == expected[2]
