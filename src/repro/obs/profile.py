"""Workload profiling: where do schedules spend their time?

:func:`profile_workload` runs a workload under N random schedules with
the full observability stack attached — instrumentation sink, span
tracer, and (optionally) the six online detectors each wrapped in a
:class:`TimedDetector` — and folds everything into one
:class:`ProfileReport`.  The report answers the questions an operator
tuning a campaign actually asks:

* which monitors are hot? (top by contended ticks, then by hold ticks)
* which threads starve? (top by blocked ticks)
* which detector is the expensive one? (wall-clock breakdown per
  detector, as a fraction of total detector time)

``repro profile <workload>`` renders it as tables via the shared
:func:`repro.report.text.render_table`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Tuple

from repro.detect.online import DetectorPipeline, OnlineDetector, default_detectors
from repro.report.text import render_table
from repro.vm.events import Event
from repro.vm.scheduler import RandomScheduler

from .metrics import Counter, Gauge, MetricsRegistry
from .sink import InstrumentationSink, fold_record
from .spans import SpanTracer

__all__ = ["TimedDetector", "ProfileReport", "profile_workload"]


class TimedDetector(OnlineDetector):
    """Wrap an online detector, metering the wall time of its folds.

    Delegates the whole :class:`OnlineDetector` protocol; accumulates
    ``wall_seconds`` and ``events`` (those of its kinds) so the profiler
    can attribute detector cost per analysis.  The wrapper takes the
    inner detector's ``kinds`` and ``abort_reason``, so a pipeline hands
    it exactly the batches, and polls it exactly as often, as the bare
    detector; each fold is timed per batch.  Timing uses
    ``perf_counter`` around each call — meaningful for *relative*
    breakdowns, which is all the profiler reports.
    """

    def __init__(self, inner: OnlineDetector) -> None:
        self.inner = inner
        self.name = inner.name
        self.kinds = inner.kinds
        # an instance attribute, so the pipeline polls the wrapper only
        # when the inner detector overrides ``abort_reason``
        self.abort_reason = inner.abort_reason  # type: ignore[method-assign]
        self.wall_seconds = 0.0
        self.events = 0

    def fold(self, events: Iterable[Event]) -> None:
        batch = events if isinstance(events, (list, tuple)) else list(events)
        start = time.perf_counter()
        self.inner.fold(batch)
        self.wall_seconds += time.perf_counter() - start
        kinds = self.kinds
        self.events += (
            len(batch)
            if kinds is None
            else sum(event.kind in kinds for event in batch)
        )

    def finish(self) -> Any:
        return self.inner.finish()


@dataclass
class ProfileReport:
    """Aggregated profile of one workload across N schedules."""

    workload: str
    runs: int
    registry: MetricsRegistry
    statuses: Dict[str, int] = field(default_factory=dict)
    #: detector name -> (wall seconds, events) across all runs
    detector_wall: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def _counter_rows(
        self, name: str, label: str, n: int
    ) -> List[Tuple[str, float]]:
        metric = self.registry.get(name)
        if not isinstance(metric, Counter):
            return []
        return [(k, v) for k, v in metric.top(n, label=label) if v > 0]

    def top_monitors(self, n: int = 5) -> List[Tuple[str, float]]:
        """Monitors ranked by contended ticks (ties broken by name)."""
        return self._counter_rows("vm_monitor_contended_ticks_total", "monitor", n)

    def top_threads(self, n: int = 5) -> List[Tuple[str, float]]:
        """Threads ranked by blocked ticks."""
        return self._counter_rows("vm_blocked_ticks_total", "thread", n)

    def detector_breakdown(self) -> List[Tuple[str, float, float]]:
        """``(name, wall_seconds, share)`` rows, most expensive first."""
        total = sum(wall for wall, _ in self.detector_wall.values())
        rows = [
            (name, wall, (wall / total if total else 0.0))
            for name, (wall, _) in self.detector_wall.items()
        ]
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows

    def describe(self) -> str:
        lines = [
            f"profile: {self.workload} — {self.runs} runs "
            f"in {self.wall_seconds:.2f}s wall"
        ]
        if self.statuses:
            outcome = ", ".join(
                f"{status}: {count}" for status, count in sorted(self.statuses.items())
            )
            lines.append(f"outcomes: {outcome}")

        hold = self.registry.get("vm_monitor_hold_ticks_total")
        monitor_rows = []
        for name, contended in self.top_monitors():
            held = hold.get(monitor=name) if isinstance(hold, Counter) else 0
            monitor_rows.append([name, f"{int(contended)}", f"{int(held)}"])
        if monitor_rows:
            lines.append("")
            lines.append(
                render_table(
                    ["monitor", "contended ticks", "hold ticks"],
                    monitor_rows,
                    title="top monitors by contention",
                )
            )

        switches = self.registry.get("vm_context_switches_total")
        thread_rows = []
        for name, blocked in self.top_threads():
            ctx = switches.get(thread=name) if isinstance(switches, Counter) else 0
            thread_rows.append([name, f"{int(blocked)}", f"{int(ctx)}"])
        if thread_rows:
            lines.append("")
            lines.append(
                render_table(
                    ["thread", "blocked ticks", "context switches"],
                    thread_rows,
                    title="top threads by blocked time",
                )
            )

        detector_rows = [
            [name, f"{wall * 1000:.2f}", f"{share * 100:.1f}%"]
            for name, wall, share in self.detector_breakdown()
        ]
        if detector_rows:
            lines.append("")
            lines.append(
                render_table(
                    ["detector", "wall ms", "share"],
                    detector_rows,
                    title="detector time breakdown",
                )
            )

        rate = self.registry.get("vm_events_per_second")
        if isinstance(rate, Gauge):
            peak = rate.get()
            if peak is not None:
                lines.append("")
                lines.append(f"peak event rate: {peak:,.0f} events/s")
        return "\n".join(lines)


def profile_workload(
    factory: Callable[..., Any],
    *,
    workload: str = "<factory>",
    runs: int = 20,
    seed_start: int = 0,
    detect: bool = True,
) -> ProfileReport:
    """Profile ``factory`` under ``runs`` random schedules.

    Each run gets a fresh kernel (``factory(RandomScheduler(seed))``),
    a fresh :class:`InstrumentationSink` sharing one :class:`SpanTracer`
    (its monitor-hold spans), and — when ``detect`` — a detector pipeline
    of :class:`TimedDetector`-wrapped analyses running with
    ``trace_mode="none"`` so profiling cost reflects streaming campaigns,
    not trace storage.  Every run's metrics record is folded into the
    tracer's registry, which the report carries.
    """
    tracer = SpanTracer()
    registry = tracer.registry
    statuses: Dict[str, int] = {}
    detector_wall: Dict[str, Tuple[float, int]] = {}
    run_hist = registry.histogram(
        "run_wall_seconds", "wall-clock duration of profiled runs"
    )
    started = time.perf_counter()
    for offset in range(runs):
        seed = seed_start + offset
        kernel = factory(RandomScheduler(seed))
        sink = InstrumentationSink(tracer=tracer)
        sink.install(kernel)
        timed: List[TimedDetector] = []
        if detect:
            kernel.trace_mode = "none"
            timed = [TimedDetector(d) for d in default_detectors()]
            DetectorPipeline(timed).attach(kernel)
        run_started = time.perf_counter()
        result = kernel.run()
        run_hist.observe(time.perf_counter() - run_started)
        statuses[result.status.value] = statuses.get(result.status.value, 0) + 1
        fold_record(registry, sink.snapshot())
        for detector in timed:
            wall, events = detector_wall.get(detector.name, (0.0, 0))
            detector_wall[detector.name] = (
                wall + detector.wall_seconds,
                events + detector.events,
            )
    return ProfileReport(
        workload=workload,
        runs=runs,
        registry=registry,
        statuses=statuses,
        detector_wall=detector_wall,
        wall_seconds=time.perf_counter() - started,
    )
