"""Tests for trace serialization and replay-from-file."""

import pytest

from repro.components import ProducerConsumer
from repro.vm import (
    Acquire,
    EventKind,
    Kernel,
    NameReplayScheduler,
    RandomScheduler,
    Release,
    Yield,
    dumps_trace,
    event_from_dict,
    event_to_dict,
    load_schedule,
    load_trace,
    loads_trace,
    save_trace,
)
from repro.vm.events import Event
from repro.vm.scheduler import ChoiceExhaustedError


def sample_run(seed=11):
    kernel = Kernel(scheduler=RandomScheduler(seed=seed))
    pc = kernel.register(ProducerConsumer())

    def producer():
        yield from pc.send("ab")

    def consumer():
        a = yield from pc.receive()
        b = yield from pc.receive()
        return a + b

    kernel.spawn(producer, name="p")
    kernel.spawn(consumer, name="c")
    return kernel.run()


class TestEventRoundtrip:
    def test_minimal_event(self):
        event = Event(seq=0, time=0, thread="t", kind=EventKind.THREAD_START)
        assert event_from_dict(event_to_dict(event)) == event

    def test_full_event(self):
        event = Event(
            seq=3,
            time=2,
            thread="t",
            kind=EventKind.MONITOR_WAIT,
            monitor="m",
            component="C",
            method="f",
            detail={"depth": 1, "line": 42},
        )
        assert event_from_dict(event_to_dict(event)) == event

    def test_sparse_dict(self):
        event = Event(seq=0, time=0, thread="t", kind=EventKind.YIELD)
        payload = event_to_dict(event)
        assert "monitor" not in payload and "detail" not in payload


class TestTraceRoundtrip:
    def test_text_roundtrip(self):
        result = sample_run()
        restored = loads_trace(dumps_trace(result.trace))
        assert len(restored) == len(result.trace)
        assert list(restored.events) == list(result.trace.events)

    def test_file_roundtrip(self, tmp_path):
        result = sample_run()
        path = tmp_path / "run.jsonl"
        save_trace(result.trace, path, schedule=result.schedule_log)
        restored = load_trace(path)
        assert list(restored.events) == list(result.trace.events)
        assert load_schedule(path) == result.schedule_log

    def test_derived_views_survive(self, tmp_path):
        result = sample_run()
        path = tmp_path / "run.jsonl"
        save_trace(result.trace, path)
        restored = load_trace(path)
        assert restored.transition_sequence("c") == result.trace.transition_sequence(
            "c"
        )
        assert len(restored.call_records()) == len(result.trace.call_records())
        assert len(restored.accesses()) == len(result.trace.accesses())

    def test_detectors_on_restored_trace(self, tmp_path):
        from repro.detect import detect_races

        result = sample_run()
        path = tmp_path / "run.jsonl"
        save_trace(result.trace, path)
        assert detect_races(load_trace(path)) == []

    def test_empty_trace(self):
        from repro.vm.trace import Trace

        assert len(loads_trace(dumps_trace(Trace()))) == 0

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="not a repro trace"):
            loads_trace('{"something": "else"}\n')

    def test_bad_version_rejected(self):
        with pytest.raises(ValueError, match="unsupported"):
            loads_trace('{"format": "repro-trace", "version": 99}\n')

    def test_schedule_absent(self, tmp_path):
        result = sample_run()
        path = tmp_path / "run.jsonl"
        save_trace(result.trace, path)  # no schedule
        assert load_schedule(path) == []


class TestNameReplay:
    def _program(self, scheduler):
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

    def test_exact_replay(self):
        original = self._program(RandomScheduler(seed=99)).run()
        replayed = self._program(
            NameReplayScheduler(original.schedule_log, strict=True)
        ).run()
        assert [(e.thread, e.kind) for e in replayed.trace] == [
            (e.thread, e.kind) for e in original.trace
        ]

    def test_replay_via_file(self, tmp_path):
        original = self._program(RandomScheduler(seed=5)).run()
        path = tmp_path / "t.jsonl"
        save_trace(original.trace, path, schedule=original.schedule_log)
        replayed = self._program(
            NameReplayScheduler(load_schedule(path), strict=True)
        ).run()
        assert replayed.schedule_log == original.schedule_log

    def test_strict_raises_on_mismatch(self):
        scheduler = NameReplayScheduler(["zzz"], strict=True)
        with pytest.raises(ChoiceExhaustedError):
            scheduler.pick("run", ["a", "b"])

    def test_lenient_falls_back(self):
        scheduler = NameReplayScheduler(["zzz"])
        assert scheduler.pick("run", ["a", "b"]) == 0
        assert scheduler.pick("run", ["a", "b"]) == 0  # exhausted -> fifo
