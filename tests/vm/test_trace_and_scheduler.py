"""Tests for the Trace views and the scheduler implementations."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.workloads import WORKLOADS
from repro.vm import (
    Acquire,
    Event,
    EventKind,
    FifoScheduler,
    Kernel,
    RandomScheduler,
    Release,
    ReplayScheduler,
    RoundRobinScheduler,
    Trace,
    Wait,
    Notify,
    Yield,
)
from repro.vm.scheduler import ChoiceExhaustedError, Decision, RecordingScheduler


def event(seq, time, thread, kind, **detail):
    monitor = detail.pop("monitor", None)
    component = detail.pop("component", None)
    method = detail.pop("method", None)
    return Event(
        seq=seq,
        time=time,
        thread=thread,
        kind=kind,
        monitor=monitor,
        component=component,
        method=method,
        detail=detail,
    )


class TestTraceViews:
    def test_filters(self):
        trace = Trace(
            [
                event(0, 0, "a", EventKind.THREAD_START),
                event(1, 1, "a", EventKind.MONITOR_REQUEST, monitor="m"),
                event(2, 2, "b", EventKind.THREAD_START),
            ]
        )
        assert len(trace.by_thread("a")) == 2
        assert len(trace.by_kind(EventKind.THREAD_START)) == 2
        assert len(trace.by_monitor("m")) == 1
        assert trace.threads() == ["a", "b"]
        assert trace.monitors() == ["m"]

    def test_transition_sequence_mapping(self):
        trace = Trace(
            [
                event(0, 0, "t", EventKind.MONITOR_REQUEST, monitor="m"),
                event(1, 1, "t", EventKind.MONITOR_ACQUIRE, monitor="m"),
                event(2, 2, "t", EventKind.MONITOR_WAIT, monitor="m"),
                event(3, 3, "t", EventKind.MONITOR_NOTIFIED, monitor="m"),
                event(4, 4, "t", EventKind.MONITOR_ACQUIRE, monitor="m"),
                event(5, 5, "t", EventKind.MONITOR_RELEASE, monitor="m"),
            ]
        )
        assert trace.transition_sequence("t") == [
            "T1",
            "T2",
            "T3",
            "T5",
            "T2",
            "T4",
        ]

    def test_call_records_nested(self):
        trace = Trace(
            [
                event(0, 0, "t", EventKind.CALL_BEGIN, component="C", method="outer"),
                event(1, 1, "t", EventKind.CALL_BEGIN, component="C", method="inner"),
                event(2, 2, "t", EventKind.CALL_END, component="C", method="inner"),
                event(3, 3, "t", EventKind.CALL_END, component="C", method="outer"),
            ]
        )
        records = trace.call_records()
        by_method = {r.method: r for r in records}
        assert by_method["inner"].duration == 1
        assert by_method["outer"].duration == 3

    def test_incomplete_calls(self):
        trace = Trace(
            [event(0, 0, "t", EventKind.CALL_BEGIN, component="C", method="m")]
        )
        assert len(trace.incomplete_calls()) == 1
        assert trace.incomplete_calls()[0].duration is None

    def test_unmatched_call_end_tolerated(self):
        trace = Trace(
            [event(0, 0, "t", EventKind.CALL_END, component="C", method="m")]
        )
        assert trace.call_records() == []

    def test_summary(self):
        trace = Trace(
            [
                event(0, 0, "t", EventKind.THREAD_START),
                event(1, 1, "t", EventKind.THREAD_END),
            ]
        )
        assert trace.summary() == {"thread_start": 1, "thread_end": 1}

    def test_event_str(self):
        text = str(event(3, 7, "t", EventKind.MONITOR_WAIT, monitor="m"))
        assert "#3" in text and "t=7" in text and "monitor_wait" in text

    def test_clock_of_time(self):
        trace = Trace(
            [
                event(0, 0, "t", EventKind.THREAD_START),
                event(1, 1, "t", EventKind.CLOCK_TICK, now=1),
                event(2, 2, "t", EventKind.CLOCK_TICK, now=2),
            ]
        )
        mapping = trace.clock_of_time()
        assert mapping[0] == 0
        assert mapping[2] == 2

    def test_indexing(self):
        trace = Trace([event(0, 0, "t", EventKind.THREAD_START)])
        assert trace[0].kind is EventKind.THREAD_START
        assert len(trace) == 1
        assert list(iter(trace))


class TestSchedulers:
    def test_fifo_always_first(self):
        scheduler = FifoScheduler()
        assert scheduler.pick("run", ["a", "b", "c"]) == 0

    def test_round_robin_rotates(self):
        scheduler = RoundRobinScheduler()
        options = ["a", "b", "c"]
        picks = [options[scheduler.pick("run", options)] for _ in range(4)]
        assert picks == ["a", "b", "c", "a"]

    def test_round_robin_reset(self):
        scheduler = RoundRobinScheduler()
        scheduler.pick("run", ["a", "b"])
        scheduler.reset()
        assert scheduler.pick("run", ["a", "b"]) == 0

    def test_random_deterministic_per_seed(self):
        s1 = RandomScheduler(5)
        s2 = RandomScheduler(5)
        options = list("abcdef")
        assert [s1.pick("run", options) for _ in range(20)] == [
            s2.pick("run", options) for _ in range(20)
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(-(2**70), 2**70),
        counts=st.lists(st.integers(1, 16), max_size=60),
    )
    @example(seed=0, counts=[1, 1, 5, 1, 16])
    def test_random_pick_is_randrange(self, seed, counts):
        """A pick draws exactly what ``randrange(n)`` on a
        ``random.Random(seed)`` draws, a pick among one option included."""
        scheduler = RandomScheduler(seed)
        reference = random.Random(seed)
        assert [scheduler.pick("run", ["t"] * n) for n in counts] == [
            reference.randrange(n) for n in counts
        ]

    def test_random_pick_among_nothing_raises(self):
        with pytest.raises(ValueError):
            RandomScheduler(0).pick("run", [])

    def test_random_reset_restarts_stream(self):
        scheduler = RandomScheduler(9)
        first = [scheduler.pick("run", list("abcd")) for _ in range(10)]
        scheduler.reset()
        second = [scheduler.pick("run", list("abcd")) for _ in range(10)]
        assert first == second

    def test_replay_then_fallback(self):
        scheduler = ReplayScheduler([2, 1])
        assert scheduler.pick("run", list("abc")) == 2
        assert scheduler.pick("run", list("abc")) == 1
        assert scheduler.pick("run", list("abc")) == 0  # fifo fallback

    def test_replay_strict_raises_when_exhausted(self):
        scheduler = ReplayScheduler([0], strict=True)
        scheduler.pick("run", ["a"])
        with pytest.raises(ChoiceExhaustedError):
            scheduler.pick("run", ["a"])

    def test_replay_out_of_range_raises(self):
        scheduler = ReplayScheduler([5])
        with pytest.raises(ChoiceExhaustedError):
            scheduler.pick("run", ["a", "b"])

    def test_recording_wraps(self):
        recorder = RecordingScheduler(FifoScheduler())
        recorder.pick("run", ["a", "b"])
        recorder.pick("wake", ["x"])
        assert recorder.decision_indices() == [0, 0]
        assert recorder.log[0] == Decision("run", ("a", "b"), 0)

    def test_record_replay_reproduces_trace(self):
        def program(scheduler):
            kernel = Kernel(scheduler=scheduler)
            kernel.new_monitor("m")

            def worker(n):
                for _ in range(n):
                    yield Acquire("m")
                    yield Yield()
                    yield Release("m")

            kernel.spawn(worker, 2, name="a")
            kernel.spawn(worker, 2, name="b")
            return kernel

        recorder = RecordingScheduler(RandomScheduler(123))
        result1 = program(recorder).run()
        replay = ReplayScheduler(recorder.decision_indices(), strict=False)
        result2 = program(replay).run()
        trace1 = [(e.thread, e.kind.value) for e in result1.trace]
        trace2 = [(e.thread, e.kind.value) for e in result2.trace]
        assert trace1 == trace2


class TestTraceDuringRun:
    def test_sink_reads_exactly_the_events_so_far(self):
        """A sink reading the trace mid-run sees every event emitted so
        far, the current one included, through both cached views, also
        when several events were appended since its last read."""
        kernel = WORKLOADS["pc-bug"](RandomScheduler(3))
        seen = []
        mismatches = []

        def sink(event):
            seen.append(event)
            if event.seq % 3:
                return
            trace = kernel.trace
            if trace.events != tuple(seen):
                mismatches.append(("events", event.seq))
            for kind in (event.kind, EventKind.READ, EventKind.CALL_END):
                if trace.by_kind(kind) != [e for e in seen if e.kind is kind]:
                    mismatches.append((kind, event.seq))

        kernel.subscribe(sink)
        result = kernel.run()
        assert mismatches == []
        assert len(seen) > 30
        assert result.trace.events == tuple(seen)
        assert result.trace.by_kind(EventKind.READ) == [
            e for e in seen if e.kind is EventKind.READ
        ]
