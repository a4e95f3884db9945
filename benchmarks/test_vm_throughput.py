"""Bench Ext-C: VM and detector throughput.

Measures the substrate's raw speed — syscall-steps per second of the
kernel on a long producer-consumer run, and on the ledger's prims-long
program with threads parked beside it — and the relative cost of each
dynamic analysis over the resulting trace (lockset, lock graph, wait-for
graph, starvation, call records).  This is the ablation for the "one
event trace feeds every analysis" design: detectors are post-hoc trace
passes, so their cost does not perturb the execution under test.
"""

import gc
import math
import statistics
import time

import pytest
from conftest import write_result
from ledger.programs import prims_long

from repro.components import BoundedBuffer, ProducerConsumer
from repro.detect import (
    analyze_starvation,
    detect_lock_cycles,
    detect_races,
    find_deadlock_cycle,
)
from repro.vm import (
    BarrierAwait,
    FifoScheduler,
    Kernel,
    RandomScheduler,
    ReplayScheduler,
)


def pc_run(n_items: int, seed: int = 1):
    kernel = Kernel(
        scheduler=RandomScheduler(seed=seed), max_steps=200 * n_items + 10_000
    )
    pc = kernel.register(ProducerConsumer())

    def producer():
        for i in range(n_items):
            yield from pc.send(chr(97 + i % 26))

    def consumer():
        for _ in range(n_items):
            yield from pc.receive()

    kernel.spawn(producer, name="p")
    kernel.spawn(consumer, name="c")
    result = kernel.run()
    assert result.ok
    return result


@pytest.mark.parametrize("n_items", [100, 1000])
def test_kernel_throughput(benchmark, n_items):
    result = benchmark(pc_run, n_items)
    assert result.steps > n_items * 10  # sanity: work scales with items


def test_buffer_throughput(benchmark):
    def run():
        kernel = Kernel(scheduler=RandomScheduler(seed=3), max_steps=500_000)
        buf = kernel.register(BoundedBuffer(8))

        def producer():
            for i in range(500):
                yield from buf.put(i)

        def consumer():
            for _ in range(500):
                yield from buf.get()

        kernel.spawn(producer, name="p")
        kernel.spawn(consumer, name="c")
        result = kernel.run()
        assert result.ok
        return result

    benchmark(run)


class TestDetectorOverhead:
    """Per-detector cost on a fixed ~40k-event trace."""

    @pytest.fixture(scope="class")
    def big_trace(self):
        return pc_run(1000).trace

    def test_lockset_pass(self, benchmark, big_trace):
        races = benchmark(detect_races, big_trace)
        assert races == []

    def test_lock_graph_pass(self, benchmark, big_trace):
        cycles = benchmark(detect_lock_cycles, big_trace)
        assert cycles == []

    def test_wait_graph_pass(self, benchmark, big_trace):
        cycle = benchmark(find_deadlock_cycle, big_trace)
        assert cycle == []

    def test_starvation_pass(self, benchmark, big_trace):
        benchmark(analyze_starvation, big_trace)

    def test_call_records_pass(self, benchmark, big_trace):
        records = benchmark(big_trace.call_records)
        assert len(records) == 2000


#: runs of the Ext-C headline; the best CPU time is reported
SUMMARY_ROUNDS = 5


def test_throughput_summary(results_dir):
    """Write the steps/sec figure for EXPERIMENTS.md: the best CPU time
    of SUMMARY_ROUNDS runs, which a kernel step-cost change moves and
    host noise mostly does not (a mean wall time drowns it)."""
    best = math.inf
    for _ in range(SUMMARY_ROUNDS):
        started = time.process_time()
        result = pc_run(2000)
        best = min(best, time.process_time() - started)
    steps_per_sec = result.steps / best
    events_per_sec = len(result.trace) / best
    text = (
        "Ext-C: VM throughput (producer-consumer, 2000 items; "
        f"best of {SUMMARY_ROUNDS} CPU times)\n"
        f"  kernel steps: {result.steps}\n"
        f"  trace events: {len(result.trace)}\n"
        f"  steps/sec:  {steps_per_sec:,.0f}\n"
        f"  events/sec: {events_per_sec:,.0f}"
    )
    write_result(results_dir, "extC_throughput.txt", text)
    print()
    print(text)
    assert steps_per_sec > 1_000


def test_throughput_without_access_recording(benchmark):
    """Ablation: field-access instrumentation costs ~25% of kernel time;
    with record_accesses=False the same workload runs leaner (no
    READ/WRITE events; race detectors then see nothing, by design)."""

    def run():
        kernel = Kernel(
            scheduler=RandomScheduler(seed=1),
            max_steps=500_000,
            record_accesses=False,
        )
        pc = kernel.register(ProducerConsumer())

        def producer():
            for i in range(1000):
                yield from pc.send(chr(97 + i % 26))

        def consumer():
            for _ in range(1000):
                yield from pc.receive()

        kernel.spawn(producer, name="p")
        kernel.spawn(consumer, name="c")
        result = kernel.run()
        assert result.ok
        return result

    result = benchmark(run)
    from repro.vm import EventKind

    assert not result.trace.by_kind(EventKind.READ, EventKind.WRITE)


#: threads parked beside prims-long in the parked-thread row
PARKED = (0, 16, 64)
PARKED_HEADER = "Ext-C: parked threads"


def prims_long_parked(n_parked: int) -> Kernel:
    """The ledger's prims-long program plus ``n_parked`` threads parked
    on a barrier that never trips.  The parked threads run first, one
    step each; the program then runs the schedule it runs alone."""
    # prims-long spawns four threads, so index 4 is the next parked one
    scheduler = ReplayScheduler([4] * n_parked, fallback=RandomScheduler(seed=0))
    kernel = prims_long(scheduler)
    barrier = kernel.new_barrier("never", parties=n_parked + 1)

    def parked():
        yield BarrierAwait(barrier)

    for _ in range(n_parked):
        kernel.spawn(parked, name="parked")
    return kernel


#: rounds of the parked-thread row; each times N=0 and N=64 back to back
PARKED_ROUNDS = 7


def cpu_rate(n_parked: int, steps_alone: int) -> float:
    """Steps per CPU second of one run with ``n_parked`` parked threads.

    The collector is off while it runs, as under :mod:`timeit`: a full
    collection lands in some runs and not others and costs up to a third
    of one, which no pairing can cancel."""
    kernel = prims_long_parked(n_parked)
    gc.collect()
    gc.disable()
    try:
        started = time.process_time()
        result = kernel.run()
        elapsed = time.process_time() - started
    finally:
        gc.enable()
    assert {"c1", "c2"} <= set(result.thread_results)
    assert len(result.stuck_threads) == n_parked
    assert result.steps == steps_alone + n_parked
    return result.steps / elapsed


def test_parked_threads_keep_the_step_rate(results_dir):
    """The kernel keeps its ready lists between steps and rescans the
    threads only when one parks, wakes, starts or ends, so 64 threads
    parked on a barrier keep at least 75% of the step rate (a rescan on
    every step kept 65-68%).

    The host's pace drifts over seconds, so the gate compares N=64 with
    N=0 in back-to-back pairs, alternating which goes first, and takes
    the median pair ratio."""
    steps_alone = prims_long(RandomScheduler(seed=0)).run().steps
    rates = {n: [] for n in PARKED}
    ratios = []
    for round_ in range(PARKED_ROUNDS):
        pair = (0, 64) if round_ % 2 == 0 else (64, 0)
        measured = {n: cpu_rate(n, steps_alone) for n in pair}
        ratios.append(measured[64] / measured[0])
        measured[16] = cpu_rate(16, steps_alone)
        for n in PARKED:
            rates[n].append(measured[n])
    ratio = statistics.median(ratios)
    text = "\n".join(
        [
            f"{PARKED_HEADER} (prims-long, seed 0, plus N threads parked on a "
            f"barrier that never trips; median of {PARKED_ROUNDS} CPU times with "
            "the collector off, N=0 and N=64 timed in alternating back-to-back "
            "pairs)",
            *(
                f"  N={n:<3d} steps/sec: {statistics.median(rate):,.0f}"
                for n, rate in rates.items()
            ),
            f"  N=64 / N=0: {ratio:.2f} (median pair ratio)",
        ]
    )
    path = results_dir / "extC_throughput.txt"
    kept = path.read_text().split(PARKED_HEADER)[0].strip() if path.exists() else ""
    write_result(results_dir, "extC_throughput.txt", f"{kept}\n\n{text}".strip())
    print()
    print(text)
    assert ratio >= 0.75
