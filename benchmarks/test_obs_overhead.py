"""Bench Ext-I: instrumentation-sink overhead.

The observability pitch of ``repro.obs`` is "zero when off, cheap when
on": an uninstalled sink leaves the kernel's emit loop iterating an
empty subscriber list, and an installed sink subscribes kind-filtered
handlers — the majority (non-monitor) events cost one dict lookup inside
the emit loop and never enter sink code.

Shared CI boxes show +-20% run-to-run noise on a 200 ms run, which
drowns a single-digit overhead, so the headline number is measured
deterministically: capture one run's ``emit`` calls, then replay them
through :meth:`Kernel.emit` on a kernel with the sink's routes installed
and on one with none.  The difference is exactly the marginal work the
sink adds, the kernel-side kind filter plus the handlers, and that cost
divided by the run's own CPU time is the overhead ratio.  A loose
end-to-end wall gate rides along to catch gross regressions (accidental
O(n) work per event) that a stream replay could mask.
"""

import gc
import statistics
import time

from conftest import write_result

from repro.components import ProducerConsumer
from repro.obs import InstrumentationSink, SpanTracer
from repro.vm import Kernel, RandomScheduler

N_ITEMS = 1000
ROUNDS = 5
# A replay takes tens of milliseconds and the sink adds a few of them,
# so take many pairs: their median must survive the multi-second
# CPU-throttle bursts shared boxes exhibit.
PASS_ROUNDS = 20


def _build_kernel(seed: int = 1) -> Kernel:
    kernel = Kernel(
        scheduler=RandomScheduler(seed=seed), max_steps=200 * N_ITEMS + 10_000
    )
    pc = kernel.register(ProducerConsumer())

    def producer():
        for i in range(N_ITEMS):
            yield from pc.send(chr(97 + i % 26))

    def consumer():
        for _ in range(N_ITEMS):
            yield from pc.receive()

    kernel.spawn(producer, name="p")
    kernel.spawn(consumer, name="c")
    return kernel


def _baseline_run_seconds() -> tuple[float, list]:
    """Best-of-N CPU seconds for an unobserved run, plus its ``emit``
    calls as (thread, kind, monitor, component, method, detail)."""
    events = []
    kernel = _build_kernel()
    kernel.subscribe(events.append)
    kernel.run()
    best = None
    for _ in range(ROUNDS):
        kernel = _build_kernel()
        started = time.process_time()
        result = kernel.run()
        elapsed = time.process_time() - started
        assert result.ok
        best = elapsed if best is None else min(best, elapsed)
    calls = [
        (e.thread, e.kind, e.monitor, e.component, e.method, e.detail)
        for e in events
    ]
    return best, calls


def _replay_seconds(calls, sink=None) -> float:
    """CPU seconds to replay ``calls`` through ``Kernel.emit`` on a fresh
    kernel, with ``sink`` installed on it when given.

    The collector is off while the replay runs, as under ``timeit``: a
    collection of the previous replays' kernels would otherwise land in
    one replay or the other at random.  The sink's own allocations are
    freed as they go, so this hides none of its cost.
    """
    kernel = Kernel(scheduler=RandomScheduler(seed=1))
    if sink is not None:
        sink.install(kernel)
    emit = kernel.emit
    gc.collect()
    gc.disable()
    try:
        started = time.process_time()
        for thread, kind, monitor, component, method, detail in calls:
            emit(thread, kind, monitor, component, method, **detail)
        return time.process_time() - started
    finally:
        gc.enable()


def _sink_pass_seconds(calls, tracer_factory=None) -> float:
    """The sink's marginal CPU seconds over a captured run: the median,
    over back-to-back pairs, of a replay with the sink installed minus a
    replay without one.  Both halves of a pair see the same stretch of
    the box, and the median drops the pairs a burst split."""
    differences = []
    for _ in range(PASS_ROUNDS):
        sink = InstrumentationSink(
            tracer=tracer_factory() if tracer_factory else None
        )
        differences.append(_replay_seconds(calls, sink) - _replay_seconds(calls))
    return statistics.median(differences)


def test_sink_overhead(results_dir):
    base, calls = _baseline_run_seconds()
    sink_pass = _sink_pass_seconds(calls)
    span_pass = _sink_pass_seconds(calls, tracer_factory=SpanTracer)
    sink_overhead = sink_pass / base
    span_overhead = span_pass / base

    per_event_ns = sink_pass / len(calls) * 1e9
    text = (
        "Ext-I: instrumentation overhead "
        f"(producer-consumer, {N_ITEMS} items, CPU time; run best of {ROUNDS},\n"
        f"   sink the median of {PASS_ROUNDS} paired emit replays)\n"
        f"  trace events per run:   {len(calls)}\n"
        f"  baseline run:           {base * 1000:8.2f} ms\n"
        f"  sink marginal work:     {sink_pass * 1000:8.2f} ms  "
        f"({sink_overhead:+.1%}, {per_event_ns:.0f} ns/event)\n"
        f"  sink + span tracer:     {span_pass * 1000:8.2f} ms  "
        f"({span_overhead:+.1%})\n"
        "  uninstalled:            0 subscribers in the emit loop (free)"
    )
    write_result(results_dir, "extI_obs_overhead.txt", text)
    print()
    print(text)

    assert sink_overhead < 0.05, f"sink overhead {sink_overhead:.1%}"


def test_end_to_end_gate():
    """Gross-regression gate: a fully observed run (sink installed on a
    live kernel) must stay within 1.5x of an unobserved one even on a
    noisy box.  The precise number comes from test_sink_overhead."""

    def timed(observe: bool) -> float:
        kernel = _build_kernel()
        if observe:
            sink = InstrumentationSink()
            sink.install(kernel)
        started = time.process_time()
        result = kernel.run()
        elapsed = time.process_time() - started
        assert result.ok
        if observe:
            assert sink.snapshot()["vm_events_total"] == sink.events_seen > 0
        return elapsed

    base = min(timed(False) for _ in range(ROUNDS))
    observed = min(timed(True) for _ in range(ROUNDS))
    assert observed < base * 1.5, f"{observed:.3f}s vs baseline {base:.3f}s"


def test_sink_numbers_unaffected_by_timing():
    """The derived series are deterministic for a fixed seed regardless
    of wall-clock noise (only vm_events_per_second may differ)."""
    records = []
    for _ in range(2):
        kernel = _build_kernel(seed=7)
        sink = InstrumentationSink()
        sink.install(kernel)
        assert kernel.run().ok
        record = sink.snapshot()
        del record["vm_events_per_second"]
        records.append(record)
    assert records[0] == records[1]
