"""The instrumentation sink: a run's native counters -> per-run metrics record.

:class:`InstrumentationSink` reads the counters the kernel keeps while
the run executes, and writes them into one record per run:

* ``vm_events_total`` / ``vm_steps_total`` and the wall-clock
  ``vm_events_per_second`` gauge, from the kernel's event and step
  counters;
* ``vm_context_switches_total`` / ``vm_blocked_ticks_total`` /
  ``vm_waiting_ticks_total`` per thread, from
  :meth:`repro.vm.kernel.Kernel.thread_stats`;
* ``vm_monitor_hold_ticks_total`` / ``vm_monitor_contended_ticks_total``
  / ``vm_monitor_acquisitions_total`` / ``vm_notify_lost_total`` and the
  ``vm_entry_queue_depth_peak`` / ``vm_wait_queue_depth_peak`` gauges
  per monitor, from the counters each
  :class:`~repro.vm.monitor.MonitorObject` updates where its owner,
  entry set and wait set change.

Cost model: the monitor counters are a few integer updates inside the
kernel's monitor syscalls, paid by every run whether a sink is
installed or not (Ext-C and the ledger's prims-long price them).
Without a :class:`SpanTracer` the sink routes no events at all:
:attr:`InstrumentationSink.routes` is empty, so installing it leaves the
kernel's emit loop as it was, and observability costs one record per
run.  Ext-I (``benchmarks/test_obs_overhead.py``) keeps this honest.
With a tracer, the sink routes the acquire, release and wait events to
span handlers that rebuild each outermost hold from the events
themselves.

After the run, :meth:`InstrumentationSink.snapshot` writes the series
into one compact record of the fixed :data:`RECORD_SCHEMA` (the
``RunSummary.metrics`` a campaign ships and journals), and
:func:`fold_record` folds a record into a registry in one pass; no
registry is built per run.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.vm.events import Event, EventKind

from .metrics import DEFAULT_BUCKETS, MetricsRegistry
from .spans import SpanTracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vm.kernel import Kernel

__all__ = ["InstrumentationSink", "RECORD_SCHEMA", "fold_record"]

# Event kinds bound to module names: function bodies read these, never
# ``EventKind.X`` (a Python-level enum class lookup before 3.12).
_MONITOR_ACQUIRE = EventKind.MONITOR_ACQUIRE
_MONITOR_RELEASE = EventKind.MONITOR_RELEASE
_MONITOR_WAIT = EventKind.MONITOR_WAIT

_PEAK = {"agg": "max"}

#: The per-run metrics record's fixed schema: name -> (kind, help, label
#: key, registry options).  An unlabelled series is ``name: value``, a
#: labelled one ``name: {label_value: value}``, and ``run_wall_seconds``
#: is ``[status, seconds]``; gauges merge across runs by their peak.
RECORD_SCHEMA: Dict[str, Tuple[str, str, Optional[str], Dict[str, Any]]] = {
    "run_wall_seconds": (
        "histogram",
        "wall-clock duration per run by status",
        "status",
        {"buckets": DEFAULT_BUCKETS},
    ),
    "vm_blocked_ticks_total": (
        "counter", "virtual time threads spent blocked in entry sets", "thread", {}
    ),
    "vm_context_switches_total": (
        "counter",
        "times a thread was scheduled after a different thread",
        "thread",
        {},
    ),
    "vm_entry_queue_depth_peak": (
        "gauge", "peak entry-set depth per monitor", "monitor", _PEAK
    ),
    "vm_events_per_second": (
        "gauge",
        "wall-clock event rate of the run (merged: peak across runs)",
        None,
        _PEAK,
    ),
    "vm_events_total": ("counter", "events emitted by the kernel", None, {}),
    "vm_monitor_acquisitions_total": (
        "counter", "outermost monitor acquisitions", "monitor", {}
    ),
    "vm_monitor_contended_ticks_total": (
        "counter",
        "virtual time threads blocked waiting for each monitor",
        "monitor",
        {},
    ),
    "vm_monitor_hold_ticks_total": (
        "counter",
        "virtual time monitors were held (outermost holds)",
        "monitor",
        {},
    ),
    "vm_notify_lost_total": (
        "counter", "notify/notifyAll calls that woke nobody", "monitor", {}
    ),
    "vm_steps_total": ("counter", "kernel scheduling steps", None, {}),
    "vm_wait_queue_depth_peak": (
        "gauge", "peak wait-set depth per monitor", "monitor", _PEAK
    ),
    "vm_waiting_ticks_total": (
        "counter", "virtual time threads spent in wait sets (pre-wake)", "thread", {}
    ),
}

#: record name -> the :class:`~repro.vm.monitor.MonitorObject` counter
#: it reports, for the series that list only nonzero monitors
_PER_MONITOR = (
    ("vm_monitor_contended_ticks_total", "contended_ticks"),
    ("vm_notify_lost_total", "lost_notifies"),
    ("vm_entry_queue_depth_peak", "entry_peak"),
    ("vm_wait_queue_depth_peak", "wait_peak"),
)

#: record name -> the ``Kernel.thread_stats`` counter it reports
_PER_THREAD = (
    ("vm_context_switches_total", "context_switches"),
    ("vm_blocked_ticks_total", "blocked_ticks"),
    ("vm_waiting_ticks_total", "waiting_ticks"),
)


class InstrumentationSink:
    """Writes a run's native counters into its metrics record.

    Usage::

        sink = InstrumentationSink()
        sink.install(kernel)          # before kernel.run()
        result = kernel.run()
        record = sink.snapshot()      # read the kernel's counters
        fold_record(registry, record) # into the caller's registry

    The first read after a run fixes the event count and the wall-clock
    event rate; later reads of the same run return the same series.  A
    monitor hold still open at quiescence (a deadlocked run holds its
    locks) counts up to the end of virtual time.  :meth:`snapshot`
    writes the run's record directly — no :class:`MetricsRegistry` per
    run.

    Args:
        tracer: optional :class:`SpanTracer`; when given, every completed
            outermost monitor hold is recorded as a ``monitor-hold`` span
            (name + per-monitor label), giving hold-time histograms in
            both clocks.  The span handlers get the only events the sink
            routes.  Span metrics land in the tracer's own registry,
            never the record.
    """

    def __init__(self, tracer: Optional[SpanTracer] = None) -> None:
        self.tracer = tracer
        self.events_seen = 0
        self._kernel: Optional["Kernel"] = None
        self._wall_start: Optional[float] = None
        self._seq_start = 0
        #: fixed by the first read after the run: wall-clock event rate
        self._finished = False
        self._events_per_second: Optional[float] = None
        #: the run's (wall seconds, status), from :meth:`observe_run`
        self._run_wall: Optional[Tuple[str, float]] = None
        #: (thread, monitor) -> virtual start of each open outermost hold
        #: the span handlers rebuild from the events
        self._open_holds: Dict[Tuple[str, str], int] = {}
        self._handlers: Dict[EventKind, Callable[[Event], None]] = (
            self._span_handlers() if tracer is not None else {}
        )
        #: kind -> handlers: the routing table :meth:`install` gives a
        #: kernel, empty without a tracer
        self.routes: Dict[EventKind, Tuple[Callable[[Event], None], ...]] = {
            kind: (handler,) for kind, handler in self._handlers.items()
        }

    def install(self, kernel: "Kernel") -> "InstrumentationSink":
        """Route the kernel's hold events to the span handlers, if there
        is a tracer (:attr:`routes`), and :meth:`bind`; returns self."""
        if self.routes:
            kernel.install_routes(self.routes)
        self.bind(kernel)
        if self.tracer is not None:
            self.tracer.attach(kernel)
        return self

    def bind(self, kernel: "Kernel") -> "InstrumentationSink":
        """Start a run on ``kernel``: its native counters and clock are
        read after the run, and the wall-clock rate counts from now;
        returns self."""
        self._kernel = kernel
        self._wall_start = time.perf_counter()
        self._seq_start = kernel.events_emitted
        return self

    def reset(self) -> "InstrumentationSink":
        """Return to the just-constructed state for the next run.

        The open-hold map is cleared in place, so :attr:`routes` stays
        valid.  The tracer, if any, keeps its spans.
        """
        self.events_seen = 0
        self._kernel = None
        self._wall_start = None
        self._seq_start = 0
        self._finished = False
        self._events_per_second = None
        self._run_wall = None
        self._open_holds.clear()
        return self

    def observe_run(self, seconds: float, status: str) -> None:
        """Record the run's wall-clock duration and end status (the
        ``run_wall_seconds`` histogram); a timing runner calls this once
        the run returns."""
        self._run_wall = (status, seconds)

    # -- monitor-hold spans ------------------------------------------------

    def _span_handlers(self) -> Dict[EventKind, Callable[[Event], None]]:
        # The spans come from the events alone, never from kernel state:
        # a replay of captured events feeds them through a bare kernel.
        open_holds = self._open_holds

        def on_acquire(event: Event) -> None:
            if not event.detail.get("reentrant"):
                open_holds[(event.thread, event.monitor)] = event.time

        def on_release(event: Event) -> None:
            if not event.detail.get("reentrant"):
                self._close_hold(event.thread, event.monitor, event.time)

        def on_wait(event: Event) -> None:
            # wait() releases the lock fully: the outermost hold ends here.
            self._close_hold(event.thread, event.monitor, event.time)

        return {
            _MONITOR_ACQUIRE: on_acquire,
            _MONITOR_RELEASE: on_release,
            _MONITOR_WAIT: on_wait,
        }

    def _close_hold(self, thread: str, monitor: str, now: int) -> None:
        start = self._open_holds.pop((thread, monitor), None)
        if start is None or self.tracer is None:
            return
        span = self.tracer.start("monitor-hold", monitor=monitor)
        span.vm_start = start
        self.tracer.end(span)

    # -- finalization ------------------------------------------------------

    def _finish(self) -> None:
        """Fix the run's end state once: the event count, the wall-clock
        rate, and the hold spans still open at quiescence."""
        if self._finished:
            return
        self._finished = True
        kernel = self._kernel
        if kernel is not None:
            self.events_seen = kernel.events_emitted - self._seq_start
        if self._wall_start is not None:
            elapsed = max(time.perf_counter() - self._wall_start, 1e-9)
            self._events_per_second = self.events_seen / elapsed
        now = kernel.time if kernel is not None else 0
        for thread, monitor in list(self._open_holds):
            self._close_hold(thread, monitor, now)

    def snapshot(self) -> Dict[str, Any]:
        """The run's metrics record (:data:`RECORD_SCHEMA`), read from
        the kernel's native counters: what the executor ships as
        ``RunSummary.metrics`` and :func:`fold_record` folds.  Hold ticks
        list every monitor acquired at least once, even at 0; the other
        per-monitor and per-thread series list only nonzero entries."""
        self._finish()
        kernel = self._kernel
        now = kernel.time if kernel is not None else 0
        monitors = list(kernel.monitors.values()) if kernel is not None else []
        acquired = [m for m in monitors if m.acquisitions]
        record: Dict[str, Any] = {
            "vm_events_total": self.events_seen,
            "vm_monitor_acquisitions_total": {
                m.name: m.acquisitions for m in acquired
            },
            "vm_monitor_hold_ticks_total": {
                m.name: m.hold_ticks
                + (now - m.hold_since if m.owner is not None else 0)
                for m in acquired
            },
        }
        for name, counter in _PER_MONITOR:
            record[name] = {
                m.name: getattr(m, counter) for m in monitors if getattr(m, counter)
            }
        if self._events_per_second is not None:
            record["vm_events_per_second"] = self._events_per_second
        if kernel is not None:
            record["vm_steps_total"] = kernel.steps
            stats = kernel.thread_stats().items()
            for name, counter in _PER_THREAD:
                record[name] = {
                    thread: s[counter] for thread, s in stats if s[counter]
                }
        if self._run_wall is not None:
            record["run_wall_seconds"] = list(self._run_wall)
        return record


def fold_record(registry: MetricsRegistry, record: Dict[str, Any]) -> None:
    """Fold one run's metrics record into ``registry`` in one pass: add
    the counters, keep the peak of each gauge, observe the histogram.

    Raises ``ValueError`` for a name outside :data:`RECORD_SCHEMA` (on
    ``--resume`` the record comes from a file) and for a name
    ``registry`` already holds as another kind of metric.
    """
    for name, value in record.items():
        try:
            kind, help_text, label, options = RECORD_SCHEMA[name]
        except KeyError:
            raise ValueError(f"unknown metric {name!r} in a metrics record") from None
        metric = registry.get(name)
        if metric is None or metric.kind != kind:
            # get-or-create; raises ValueError when ``name`` is another kind
            metric = getattr(registry, kind)(name, help_text, **options)
        if kind == "histogram":
            status, seconds = value
            metric.observe(seconds, **{label: status})
            continue
        series = metric._series  # one pass, straight into the series
        pairs = (
            (((), value),)
            if label is None
            else ((((label, key),), v) for key, v in value.items())
        )
        if kind == "counter":
            for key, v in pairs:
                series[key] = series.get(key, 0) + v
        else:  # a peak gauge
            for key, v in pairs:
                if key not in series or v > series[key]:
                    series[key] = v
