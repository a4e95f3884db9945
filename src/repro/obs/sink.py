"""The instrumentation sink: kernel event bus -> metrics registry.

:class:`InstrumentationSink` subscribes to a kernel's event bus (the same
``subscribe`` hook the streaming detector pipeline uses) and derives the
core scheduler/monitor series while the run executes:

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
subscribe kind-filtered (``Kernel.subscribe(handler, kinds=...)``), so
the (majority) event kinds that carry no monitor state cost one dict
lookup inside the emit loop and never enter sink code; the
monitor-protocol minority runs a short handler.  That lookup stays in C
because :class:`~repro.vm.events.EventKind` hashes by identity (the
inherited ``Enum.__hash__`` is Python code and would cost more per event
than the lookup it feeds).  Event counting and the
per-thread counters cost nothing because the kernel maintains them
natively (``events_emitted`` / ``thread_stats``).  Ext-I
(``benchmarks/test_obs_overhead.py``) keeps this honest.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.vm.events import Event, EventKind

from .metrics import MetricsRegistry, MetricsSnapshot
from .spans import SpanTracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vm.kernel import Kernel

__all__ = ["InstrumentationSink"]

# Event kinds bound to module names: function bodies read these, never
# ``EventKind.X`` (a Python-level enum class lookup before 3.12).
_MONITOR_REQUEST = EventKind.MONITOR_REQUEST
_MONITOR_ACQUIRE = EventKind.MONITOR_ACQUIRE
_MONITOR_WAIT = EventKind.MONITOR_WAIT
_MONITOR_RELEASE = EventKind.MONITOR_RELEASE
_MONITOR_NOTIFIED = EventKind.MONITOR_NOTIFIED
_NOTIFY = EventKind.NOTIFY
_NOTIFY_ALL = EventKind.NOTIFY_ALL


class InstrumentationSink:
    """Streams kernel events into a :class:`MetricsRegistry`.

    Usage::

        sink = InstrumentationSink()
        sink.install(kernel)          # before kernel.run()
        result = kernel.run()
        registry = sink.collect()     # finalize + pull native counters

    ``collect`` closes still-open monitor holds (a deadlocked run holds
    its locks at quiescence) and folds in the kernel's native per-thread
    counters; call it once, after the run.

    Args:
        registry: fold into an existing registry (default: fresh).
        tracer: optional :class:`SpanTracer`; when given, every completed
            outermost monitor hold is recorded as a ``monitor-hold`` span
            (name + per-monitor label), giving hold-time histograms in
            both clocks for free.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
    ) -> None:
        self.registry = registry or MetricsRegistry()
        self.tracer = tracer
        self.events_seen = 0
        self._kernel: Optional["Kernel"] = None
        self._wall_start: Optional[float] = None
        self._seq_start = 0
        self._collected = False
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

    def install(self, kernel: "Kernel") -> "InstrumentationSink":
        """Subscribe to the kernel's event bus; returns self.

        Each monitor-protocol handler subscribes kind-filtered, so the
        (majority) events without a handler never reach sink code — their
        whole cost is the kernel-side filter lookup.  Event counting rides
        the kernel's native seq counter instead of a Python-side
        increment.
        """
        self._kernel = kernel
        self._wall_start = time.perf_counter()
        self._seq_start = kernel.events_emitted
        for kind, handler in self._handlers.items():
            kernel.subscribe(handler, kinds=(kind,))
        if self.tracer is not None:
            self.tracer.attach(kernel)
        return self

    def reset(self) -> "InstrumentationSink":
        """Return to the just-constructed state for the next run.

        The handler closures bind the state dicts (and the tracer) as
        locals, so the dicts are cleared *in place*; only a tracer forces
        a handler rebuild.  The registry is rebound fresh — collect()
        reads it through the attribute, and the previous run's snapshot
        stays valid in the old registry object.
        """
        self.registry = MetricsRegistry()
        self.events_seen = 0
        self._kernel = None
        self._wall_start = None
        self._seq_start = 0
        self._collected = False
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
        return self

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

    def collect(self) -> MetricsRegistry:
        """Finalize the run's series into the registry and return it.

        Idempotent per run: a second call returns the registry unchanged.
        """
        if self._collected:
            return self.registry
        self._collected = True
        kernel = self._kernel
        if kernel is not None:
            self.events_seen = kernel.events_emitted - self._seq_start
        now = kernel.time if kernel is not None else 0
        # A deadlocked/stuck run still holds monitors at quiescence: count
        # the hold up to the end of virtual time.
        for thread, monitor in list(self._open_holds):
            self._close_hold(thread, monitor, now)

        registry = self.registry
        registry.counter("vm_events_total", "events emitted by the kernel").inc(
            self.events_seen
        )
        if self._wall_start is not None:
            elapsed = max(time.perf_counter() - self._wall_start, 1e-9)
            registry.gauge(
                "vm_events_per_second",
                "wall-clock event rate of the run (merged: peak across runs)",
            ).set_max(self.events_seen / elapsed)
        if kernel is not None:
            registry.counter("vm_steps_total", "kernel scheduling steps").inc(
                kernel.steps
            )
            switches = registry.counter(
                "vm_context_switches_total",
                "times a thread was scheduled after a different thread",
            )
            blocked = registry.counter(
                "vm_blocked_ticks_total",
                "virtual time threads spent blocked in entry sets",
            )
            waiting = registry.counter(
                "vm_waiting_ticks_total",
                "virtual time threads spent in wait sets (pre-wake)",
            )
            for name, stats in kernel.thread_stats().items():
                if stats["context_switches"]:
                    switches.inc(stats["context_switches"], thread=name)
                if stats["blocked_ticks"]:
                    blocked.inc(stats["blocked_ticks"], thread=name)
                if stats["waiting_ticks"]:
                    waiting.inc(stats["waiting_ticks"], thread=name)

        acquisitions = registry.counter(
            "vm_monitor_acquisitions_total", "outermost monitor acquisitions"
        )
        for monitor, count in self._acquisitions.items():
            acquisitions.inc(count, monitor=monitor)
        hold = registry.counter(
            "vm_monitor_hold_ticks_total",
            "virtual time monitors were held (outermost holds)",
        )
        for monitor, ticks in self._hold_ticks.items():
            hold.inc(ticks, monitor=monitor)
        contended = registry.counter(
            "vm_monitor_contended_ticks_total",
            "virtual time threads blocked waiting for each monitor",
        )
        for monitor, ticks in self._contended_ticks.items():
            contended.inc(ticks, monitor=monitor)
        lost = registry.counter(
            "vm_notify_lost_total", "notify/notifyAll calls that woke nobody"
        )
        for monitor, count in self._lost_notifies.items():
            lost.inc(count, monitor=monitor)
        entry_peak = registry.gauge(
            "vm_entry_queue_depth_peak", "peak entry-set depth per monitor"
        )
        for monitor, peak in self._entry_peak.items():
            entry_peak.set_max(peak, monitor=monitor)
        wait_peak = registry.gauge(
            "vm_wait_queue_depth_peak", "peak wait-set depth per monitor"
        )
        for monitor, peak in self._wait_peak.items():
            wait_peak.set_max(peak, monitor=monitor)
        if self.tracer is not None:
            registry.merge(self.tracer.registry)
        return registry

    def snapshot(self) -> MetricsSnapshot:
        """``collect()`` projected to the picklable snapshot form."""
        return self.collect().snapshot()
