"""An independent reference for the per-monitor metrics series.

:class:`EventDerivedMonitorSeries` rebuilds the per-monitor series of a
run's metrics record from its events alone, the way the instrumentation
sink once derived them while the run executed.  The sink now reads the
counters each monitor keeps, so replaying a run's trace through this
reference checks those counters against a second derivation that shares
no code with them.

An interrupted blocked acquirer leaves the entry set without a
MONITOR_ACQUIRE: the reference takes it out of the entry-set depth at
its INTERRUPT event (unless it is reacquiring after a wake, in
which case it stays queued).
"""

from typing import Dict, Iterable, Tuple

from repro.vm.events import Event, EventKind


class EventDerivedMonitorSeries:
    """Per-monitor series folded from a stream of kernel events."""

    def __init__(self) -> None:
        self.entry_depth: Dict[str, int] = {}
        self.entry_peak: Dict[str, int] = {}
        self.wait_depth: Dict[str, int] = {}
        self.wait_peak: Dict[str, int] = {}
        self.open_holds: Dict[Tuple[str, str], int] = {}
        self.hold_ticks: Dict[str, int] = {}
        self.contended_ticks: Dict[str, int] = {}
        self.acquisitions: Dict[str, int] = {}
        self.lost_notifies: Dict[str, int] = {}
        #: thread -> (monitor, reacquiring) while it waits for the lock
        self.pending: Dict[str, Tuple[str, bool]] = {}
        self._handlers = {
            EventKind.MONITOR_REQUEST: self._on_request,
            EventKind.MONITOR_ACQUIRE: self._on_acquire,
            EventKind.MONITOR_RELEASE: self._on_release,
            EventKind.MONITOR_WAIT: self._on_wait,
            EventKind.MONITOR_NOTIFIED: self._on_notified,
            EventKind.NOTIFY: self._on_notify,
            EventKind.NOTIFY_ALL: self._on_notify,
            EventKind.INTERRUPT: self._on_interrupt,
        }

    def replay(
        self, events: Iterable[Event], end_time: int
    ) -> "EventDerivedMonitorSeries":
        """Fold ``events``, then close the holds still open at
        ``end_time`` (the run's final virtual time); returns self."""
        for event in events:
            handler = self._handlers.get(event.kind)
            if handler is not None:
                handler(event)
        for thread, monitor in list(self.open_holds):
            self._close_hold(thread, monitor, end_time)
        return self

    def record_series(self) -> Dict[str, Dict[str, int]]:
        """The per-monitor entries of a metrics record."""
        return {
            "vm_monitor_acquisitions_total": dict(self.acquisitions),
            "vm_monitor_hold_ticks_total": dict(self.hold_ticks),
            "vm_monitor_contended_ticks_total": dict(self.contended_ticks),
            "vm_notify_lost_total": dict(self.lost_notifies),
            "vm_entry_queue_depth_peak": dict(self.entry_peak),
            "vm_wait_queue_depth_peak": dict(self.wait_peak),
        }

    # -- handlers ------------------------------------------------------------

    def _enter(self, thread: str, monitor: str, reacquiring: bool) -> None:
        depth = self.entry_depth.get(monitor, 0) + 1
        self.entry_depth[monitor] = depth
        self.entry_peak[monitor] = max(self.entry_peak.get(monitor, 0), depth)
        self.pending[thread] = (monitor, reacquiring)

    def _leave(self, thread: str, monitor: str) -> None:
        self.entry_depth[monitor] -= 1
        del self.pending[thread]

    def _on_request(self, event: Event) -> None:
        self._enter(event.thread, event.monitor, False)

    def _on_acquire(self, event: Event) -> None:
        monitor = event.monitor
        self._leave(event.thread, monitor)
        detail = event.detail
        if detail.get("reentrant"):
            return  # deeper hold of an already-open outermost hold
        blocked_for = detail.get("blocked_for", 0)
        if blocked_for:
            self.contended_ticks[monitor] = (
                self.contended_ticks.get(monitor, 0) + blocked_for
            )
        self.acquisitions[monitor] = self.acquisitions.get(monitor, 0) + 1
        self.open_holds[(event.thread, monitor)] = event.time

    def _close_hold(self, thread: str, monitor: str, now: int) -> None:
        start = self.open_holds.pop((thread, monitor), None)
        if start is not None:
            self.hold_ticks[monitor] = self.hold_ticks.get(monitor, 0) + now - start

    def _on_release(self, event: Event) -> None:
        if not event.detail.get("reentrant"):
            self._close_hold(event.thread, event.monitor, event.time)

    def _on_wait(self, event: Event) -> None:
        # wait() releases the lock fully: the outermost hold ends here.
        monitor = event.monitor
        self._close_hold(event.thread, monitor, event.time)
        depth = self.wait_depth.get(monitor, 0) + 1
        self.wait_depth[monitor] = depth
        self.wait_peak[monitor] = max(self.wait_peak.get(monitor, 0), depth)

    def _on_notified(self, event: Event) -> None:
        # The waiter leaves the wait set and re-enters the entry set
        # (Figure-1 T5: D -> B) without a fresh MONITOR_REQUEST.
        self.wait_depth[event.monitor] -= 1
        self._enter(event.thread, event.monitor, True)

    def _on_notify(self, event: Event) -> None:
        if not event.detail["woken"]:
            monitor = event.monitor
            self.lost_notifies[monitor] = self.lost_notifies.get(monitor, 0) + 1

    def _on_interrupt(self, event: Event) -> None:
        # A blocked acquirer leaves the entry set; a blocked thread that
        # is reacquiring after a wake stays queued for the lock.
        if event.detail.get("thread_state") != "blocked":
            return
        pending = self.pending.get(event.thread)
        if pending is not None and not pending[1]:
            self._leave(event.thread, pending[0])
