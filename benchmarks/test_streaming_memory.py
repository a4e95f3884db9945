"""Bench Ext-H: streaming detection memory & throughput.

Compares the two ways to detect failures over a schedule sweep:

* **batch** — run with a full stored trace (``trace_mode="full"``), then
  ``analyze_run`` over the finished :class:`RunResult`;
* **streaming** — attach a :class:`DetectorPipeline` with
  ``trace_mode="none"``: the kernel stores nothing, the detectors see
  every event live.

Both must find the *same* failure classes (equivalence is proven
event-for-event in ``tests/detect/test_online_equivalence.py``; here it
is re-asserted end-to-end on a chatty workload).  The point of streaming
is the memory curve: batch peaks at O(events) per run, streaming at
O(detector state) — so on an event-heavy program the batch path's peak
allocation must strictly dominate.  Throughput must stay in the same
ballpark (the detectors do the same work either way; streaming just
skips trace append/scan).
"""

from __future__ import annotations

import time
import tracemalloc

import pytest
from conftest import write_result

from repro.detect import DetectionSummary, analyze_run
from repro.detect.online import DetectorPipeline
from repro.vm import Acquire, Kernel, RandomScheduler, Release, Tick

#: threads x iterations: enough events per run (~10k) that the stored
#: trace dwarfs detector state.
THREADS = 4
ITERATIONS = 400
SEEDS = range(4)


def chatty_factory(scheduler) -> Kernel:
    """An event-heavy, failure-free workload: THREADS workers hammering
    one monitor plus one unsynchronized shared field (a benign-looking
    FF-T1 race, so detection has something to find)."""
    kernel = Kernel(scheduler=scheduler, max_steps=1_000_000)
    kernel.new_monitor("m")

    def worker(name):
        for _ in range(ITERATIONS):
            yield Acquire("m")
            yield Tick()
            yield Release("m")

    def racer():
        from repro.vm import Read, Write

        for _ in range(ITERATIONS):
            yield Read("Shared", "x")
            yield Write("Shared", "x")

    for i in range(THREADS - 2):
        kernel.spawn(worker, f"w{i}", name=f"w{i}")
    kernel.spawn(racer, name="racer1")
    kernel.spawn(racer, name="racer2")
    return kernel


def sweep_batch():
    summaries = []
    for seed in SEEDS:
        result = chatty_factory(RandomScheduler(seed=seed)).run()
        summaries.append(DetectionSummary.from_report(analyze_run(result)))
    return summaries


def sweep_streaming():
    summaries = []
    for seed in SEEDS:
        kernel = chatty_factory(RandomScheduler(seed=seed))
        kernel.trace_mode = "none"
        pipeline = DetectorPipeline(early_stop=False).attach(kernel)
        result = kernel.run()
        assert len(result.trace) == 0
        summaries.append(pipeline.summary(result))
    return summaries


def measured(fn):
    tracemalloc.start()
    started = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - started
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return out, peak, elapsed


@pytest.fixture(scope="module")
def ext_h():
    batch, batch_peak, batch_time = measured(sweep_batch)
    streaming, stream_peak, stream_time = measured(sweep_streaming)
    return {
        "batch": (batch, batch_peak, batch_time),
        "streaming": (streaming, stream_peak, stream_time),
    }


class TestExtHStreamingMemory:
    def test_same_failure_classes(self, ext_h):
        batch, _, _ = ext_h["batch"]
        streaming, _, _ = ext_h["streaming"]
        assert [s.classes for s in batch] == [s.classes for s in streaming]
        # the planted unsynchronized field must actually be detected
        assert all(s.races > 0 for s in streaming)

    def test_streaming_peak_memory_below_batch(self, ext_h):
        _, batch_peak, _ = ext_h["batch"]
        _, stream_peak, _ = ext_h["streaming"]
        # Directional claim only: stored trace is O(events) per run, so
        # the batch peak must strictly dominate on this event volume.
        assert stream_peak < batch_peak

    def test_throughput_same_ballpark(self, ext_h):
        _, _, batch_time = ext_h["batch"]
        _, _, stream_time = ext_h["streaming"]
        # Same detector work either way; allow generous jitter headroom.
        assert stream_time < batch_time * 3

    def test_write_result(self, ext_h, results_dir):
        batch, batch_peak, batch_time = ext_h["batch"]
        _, stream_peak, stream_time = ext_h["streaming"]
        n = len(list(SEEDS))
        lines = [
            "Ext-H: streaming detection — peak traced allocation and "
            "throughput, batch full-trace analyze_run vs trace_mode='none' "
            "DetectorPipeline",
            f"workload: {THREADS} threads x {ITERATIONS} iterations, "
            f"{n} seeded runs, classes per run "
            f"{[list(s.classes) for s in batch]!r}",
            f"batch:     peak {batch_peak / 1024:.0f} KiB, "
            f"{n / batch_time:.1f} runs/s",
            f"streaming: peak {stream_peak / 1024:.0f} KiB, "
            f"{n / stream_time:.1f} runs/s",
            f"peak ratio (batch/streaming): {batch_peak / stream_peak:.1f}x",
        ]
        write_result(results_dir, "extH_streaming_memory.txt", "\n".join(lines))
