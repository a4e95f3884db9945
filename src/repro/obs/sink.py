"""The instrumentation sink: kernel event bus -> per-run metrics record.

:class:`InstrumentationSink` routes a kernel's monitor-protocol events to
its handlers (a kind-filtered routing table, like the streaming detector
pipeline's) and derives the core scheduler/monitor series while the run
executes:

* ``vm_events_total`` / ``vm_steps_total`` and the wall-clock
  ``vm_events_per_second`` gauge;
* ``vm_context_switches_total`` / ``vm_blocked_ticks_total`` /
  ``vm_waiting_ticks_total`` per thread — read directly from the
  kernel's native counters (:meth:`repro.vm.kernel.Kernel.thread_stats`),
  not re-derived from events;
* ``vm_monitor_hold_ticks_total`` / ``vm_monitor_contended_ticks_total``
  / ``vm_monitor_acquisitions_total`` / ``vm_notify_lost_total`` per
  monitor;
* ``vm_entry_queue_depth_peak`` / ``vm_wait_queue_depth_peak`` per
  monitor (gauges, merged by max across runs).

Cost model: when no sink is installed the kernel's emit loop iterates an
empty list — observability off is free.  When installed, the handlers
are routed kind-filtered (``Kernel.install_routes``), so
the (majority) event kinds that carry no monitor state cost one dict
lookup inside the emit loop and never enter sink code; the
monitor-protocol minority runs a short handler.  That lookup stays in C
because :class:`~repro.vm.events.EventKind` hashes by identity (the
inherited ``Enum.__hash__`` is Python code and would cost more per event
than the lookup it feeds).  Event counting and the
per-thread counters cost nothing because the kernel maintains them
natively (``events_emitted`` / ``thread_stats``).  Ext-I
(``benchmarks/test_obs_overhead.py``) keeps this honest.

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
_MONITOR_REQUEST = EventKind.MONITOR_REQUEST
_MONITOR_ACQUIRE = EventKind.MONITOR_ACQUIRE
_MONITOR_WAIT = EventKind.MONITOR_WAIT
_MONITOR_RELEASE = EventKind.MONITOR_RELEASE
_MONITOR_NOTIFIED = EventKind.MONITOR_NOTIFIED
_NOTIFY = EventKind.NOTIFY
_NOTIFY_ALL = EventKind.NOTIFY_ALL

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

#: record name -> the ``Kernel.thread_stats`` counter it reports
_PER_THREAD = (
    ("vm_context_switches_total", "context_switches"),
    ("vm_blocked_ticks_total", "blocked_ticks"),
    ("vm_waiting_ticks_total", "waiting_ticks"),
)


class InstrumentationSink:
    """Streams kernel events into per-run metric series.

    Usage::

        sink = InstrumentationSink()
        sink.install(kernel)          # before kernel.run()
        result = kernel.run()
        record = sink.snapshot()      # finalize + pull native counters
        registry = sink.collect()     # the same series as a registry

    The first read after a run closes still-open monitor holds (a
    deadlocked run holds its locks at quiescence), reads the kernel's
    native per-thread counters and fixes the wall-clock event rate;
    later reads of the same run return the same series.
    :meth:`snapshot` writes the run's record directly — no
    :class:`MetricsRegistry` per run — and :meth:`collect` folds it into
    a fresh registry.

    Args:
        tracer: optional :class:`SpanTracer`; when given, every completed
            outermost monitor hold is recorded as a ``monitor-hold`` span
            (name + per-monitor label), giving hold-time histograms in
            both clocks for free.  Span metrics reach :meth:`collect`
            only, never the record.
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
        # live derivation state, all plain dicts for speed
        self._entry_depth: Dict[str, int] = {}
        self._entry_peak: Dict[str, int] = {}
        self._wait_depth: Dict[str, int] = {}
        self._wait_peak: Dict[str, int] = {}
        self._open_holds: Dict[Tuple[str, str], int] = {}
        self._hold_ticks: Dict[str, int] = {}
        self._contended_ticks: Dict[str, int] = {}
        self._acquisitions: Dict[str, int] = {}
        self._lost_notifies: Dict[str, int] = {}
        self._close_hold, self._handlers = self._build_handlers()
        #: kind -> handlers: the routing table :meth:`install` gives a kernel
        self.routes: Dict[EventKind, Tuple[Callable[[Event], None], ...]] = {
            kind: (handler,) for kind, handler in self._handlers.items()
        }

    def install(self, kernel: "Kernel") -> "InstrumentationSink":
        """Route the kernel's monitor-protocol events to this sink
        (:attr:`routes`) and :meth:`bind` it; returns self.

        Each monitor-protocol handler is routed kind-filtered, so the
        (majority) events without a handler never reach sink code — their
        whole cost is the kernel-side filter lookup.  Event counting rides
        the kernel's native seq counter instead of a Python-side
        increment.
        """
        kernel.install_routes(self.routes)
        self.bind(kernel)
        if self.tracer is not None:
            self.tracer.attach(kernel)
        return self

    def bind(self, kernel: "Kernel") -> "InstrumentationSink":
        """Start a run on ``kernel``, whose routes deliver to this sink:
        its native counters and clock are read after the run, and the
        wall-clock rate counts from now; returns self."""
        self._kernel = kernel
        self._wall_start = time.perf_counter()
        self._seq_start = kernel.events_emitted
        return self

    def reset(self) -> "InstrumentationSink":
        """Return to the just-constructed state for the next run.

        The handler closures bind the state dicts (and the tracer) as
        locals, so the dicts are cleared *in place* and :attr:`routes`
        stays valid; only a tracer forces a handler (and routes) rebuild.
        """
        self.events_seen = 0
        self._kernel = None
        self._wall_start = None
        self._seq_start = 0
        self._finished = False
        self._events_per_second = None
        self._run_wall = None
        for state in (
            self._entry_depth,
            self._entry_peak,
            self._wait_depth,
            self._wait_peak,
            self._open_holds,
            self._hold_ticks,
            self._contended_ticks,
            self._acquisitions,
            self._lost_notifies,
        ):
            state.clear()
        if self.tracer is not None:
            self.tracer = SpanTracer()
            self._close_hold, self._handlers = self._build_handlers()
            self.routes = {
                kind: (handler,) for kind, handler in self._handlers.items()
            }
        return self

    def observe_run(self, seconds: float, status: str) -> None:
        """Record the run's wall-clock duration and end status (the
        ``run_wall_seconds`` histogram); a timing runner calls this once
        the run returns."""
        self._run_wall = (status, seconds)

    # -- the hot path (standalone form for feeding a sink without a
    # kernel; install() wires the handlers kind-filtered instead) ----------

    def on_event(self, event: Event) -> None:
        self.events_seen += 1
        handler = self._handlers.get(event.kind)
        if handler is not None:
            handler(event)

    # -- monitor-protocol handlers ----------------------------------------

    def _build_handlers(
        self,
    ) -> Tuple[
        Callable[[str, str, int], None], Dict[EventKind, Callable[[Event], None]]
    ]:
        # Closures over the state dicts: these run once per monitor event,
        # and binding the dicts as locals drops the repeated ``self._x``
        # attribute lookups from the hot path.
        entry_depth = self._entry_depth
        entry_peak = self._entry_peak
        wait_depth = self._wait_depth
        wait_peak = self._wait_peak
        open_holds = self._open_holds
        hold_ticks = self._hold_ticks
        contended_ticks = self._contended_ticks
        acquisitions = self._acquisitions
        lost_notifies = self._lost_notifies
        tracer = self.tracer

        def on_request(event: Event) -> None:
            monitor = event.monitor
            depth = entry_depth.get(monitor, 0) + 1
            entry_depth[monitor] = depth
            if depth > entry_peak.get(monitor, 0):
                entry_peak[monitor] = depth

        def on_acquire(event: Event) -> None:
            monitor = event.monitor
            depth = entry_depth.get(monitor, 0)
            if depth > 0:
                entry_depth[monitor] = depth - 1
            detail = event.detail
            if detail:  # an uncontended first acquire carries no detail
                if detail.get("reentrant"):
                    return  # deeper hold of an already-open outermost hold
                blocked_for = detail.get("blocked_for", 0)
                if blocked_for:
                    contended_ticks[monitor] = (
                        contended_ticks.get(monitor, 0) + blocked_for
                    )
            acquisitions[monitor] = acquisitions.get(monitor, 0) + 1
            open_holds[(event.thread, monitor)] = event.time

        def close_hold(thread: str, monitor: str, now: int) -> None:
            start = open_holds.pop((thread, monitor), None)
            if start is None:
                return
            hold_ticks[monitor] = hold_ticks.get(monitor, 0) + (now - start)
            if tracer is not None:
                span = tracer.start("monitor-hold", monitor=monitor)
                span.vm_start = start
                tracer.end(span)

        def on_release(event: Event) -> None:
            detail = event.detail
            if not (detail and detail.get("reentrant")):
                close_hold(event.thread, event.monitor, event.time)

        def on_wait(event: Event) -> None:
            # wait() releases the lock fully: the outermost hold ends here.
            monitor = event.monitor
            close_hold(event.thread, monitor, event.time)
            depth = wait_depth.get(monitor, 0) + 1
            wait_depth[monitor] = depth
            if depth > wait_peak.get(monitor, 0):
                wait_peak[monitor] = depth

        def on_notified(event: Event) -> None:
            # The waiter leaves the wait set and re-enters the entry set
            # (Figure-1 T5: D -> B) without a fresh MONITOR_REQUEST.
            monitor = event.monitor
            depth = wait_depth.get(monitor, 0)
            if depth > 0:
                wait_depth[monitor] = depth - 1
            entry = entry_depth.get(monitor, 0) + 1
            entry_depth[monitor] = entry
            if entry > entry_peak.get(monitor, 0):
                entry_peak[monitor] = entry

        def on_notify(event: Event) -> None:
            if not event.detail.get("woken"):
                monitor = event.monitor
                lost_notifies[monitor] = lost_notifies.get(monitor, 0) + 1

        return close_hold, {
            _MONITOR_REQUEST: on_request,
            _MONITOR_ACQUIRE: on_acquire,
            _MONITOR_RELEASE: on_release,
            _MONITOR_WAIT: on_wait,
            _MONITOR_NOTIFIED: on_notified,
            _NOTIFY: on_notify,
            _NOTIFY_ALL: on_notify,
        }

    # -- finalization ------------------------------------------------------

    def _finish(self) -> None:
        """Fix the run's end state once: the event count, the wall-clock
        rate, and the monitor holds still open at quiescence."""
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
        # A deadlocked/stuck run still holds monitors at quiescence: count
        # the hold up to the end of virtual time.
        for thread, monitor in list(self._open_holds):
            self._close_hold(thread, monitor, now)

    def snapshot(self) -> Dict[str, Any]:
        """The run's metrics record (:data:`RECORD_SCHEMA`), written
        straight from the sink's state: what the executor ships as
        ``RunSummary.metrics`` and :func:`fold_record` folds.  A monitor
        present with value 0 stays present; the per-thread series list
        only nonzero threads."""
        self._finish()
        record: Dict[str, Any] = {
            "vm_events_total": self.events_seen,
            "vm_monitor_acquisitions_total": dict(self._acquisitions),
            "vm_monitor_hold_ticks_total": dict(self._hold_ticks),
            "vm_monitor_contended_ticks_total": dict(self._contended_ticks),
            "vm_notify_lost_total": dict(self._lost_notifies),
            "vm_entry_queue_depth_peak": dict(self._entry_peak),
            "vm_wait_queue_depth_peak": dict(self._wait_peak),
        }
        if self._events_per_second is not None:
            record["vm_events_per_second"] = self._events_per_second
        kernel = self._kernel
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

    def collect(self) -> MetricsRegistry:
        """The run's record folded into a fresh :class:`MetricsRegistry`,
        plus the tracer's span metrics, for callers that merge
        registries."""
        registry = MetricsRegistry()
        fold_record(registry, self.snapshot())
        if self.tracer is not None:
            registry.merge(self.tracer.registry)
        return registry


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
