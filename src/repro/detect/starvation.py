"""Starvation and fairness analysis (FF-T2 way 2, FF-T5 unfair notify).

Section 5.2.1: *"If there is high contention and there is always more than
one thread requesting a lock, it is possible that one thread is never
selected to receive a lock ... Since the Java virtual machine is not
required to be fair, this could be a potential problem."*  Section 5.5.1
makes the same point for notify selection.

Two measures are computed from a trace:

* **lock bypasses** — each time monitor ``M`` is granted to thread ``B``
  while an *earlier-arrived* thread ``A`` sits in the entry set, ``A`` is
  *bypassed* (overtaken) once.  Under a FIFO grant policy the count is
  zero by construction; unfair policies accumulate overtakes.  A thread
  bypassed more than ``threshold`` times (or bypassed and still blocked
  at the end) is flagged as starved.
* **notify bypasses** — each time a waiter is woken on ``M`` while an
  earlier-waiting ``A`` remains in the wait set, ``A`` is overtaken once.
  Symmetric flagging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.vm.events import Event, EventKind
from repro.vm.trace import Trace

from repro.run.registry import register_detector

from .online import OnlineDetector, replay

__all__ = ["StarvationReport", "OnlineStarvationDetector", "analyze_starvation"]

# Event kinds bound to module names: function bodies read these, never
# ``EventKind.X`` (a Python-level enum class lookup before 3.12).
_MONITOR_REQUEST = EventKind.MONITOR_REQUEST
_MONITOR_ACQUIRE = EventKind.MONITOR_ACQUIRE
_MONITOR_WAIT = EventKind.MONITOR_WAIT
_MONITOR_NOTIFIED = EventKind.MONITOR_NOTIFIED
_INTERRUPT = EventKind.INTERRUPT
_WAIT_TIMEOUT = EventKind.WAIT_TIMEOUT
_SEM_REQUEST = EventKind.SEM_REQUEST
_SEM_ACQUIRE = EventKind.SEM_ACQUIRE
_RW_REQUEST = EventKind.RW_REQUEST
_RW_ACQUIRE = EventKind.RW_ACQUIRE
_RW_DOWNGRADE = EventKind.RW_DOWNGRADE

_PRIMITIVE_REQUESTS = frozenset({_SEM_REQUEST, _RW_REQUEST})
_PRIMITIVE_GRANTS = frozenset({_SEM_ACQUIRE, _RW_ACQUIRE, _RW_DOWNGRADE})
_THREAD_EXITS = frozenset({EventKind.THREAD_END, EventKind.THREAD_CRASH})


@dataclass(frozen=True)
class StarvationReport:
    """One starved thread.

    ``kind`` is ``"lock"`` (never granted the monitor: FF-T2) or
    ``"notify"`` (never selected by notify: FF-T5).
    """

    thread: str
    monitor: str
    kind: str
    bypasses: int
    resolved: bool  # True when the thread did eventually proceed

    # ``kind`` values beyond the monitor pair: "permit" (semaphore
    # acquirer overtaken, the §5.2.1 fairness point applied to permits)
    # and "writer"/"reader" (rw acquirer overtaken in that mode —
    # "writer" under reader preference is the classic writer starvation).

    def __str__(self) -> str:
        fate = "eventually proceeded" if self.resolved else "still stuck at end"
        return (
            f"{self.kind}-starvation: {self.thread!r} bypassed {self.bypasses}x "
            f"on {self.monitor!r} ({fate})"
        )


@register_detector("starvation")
class OnlineStarvationDetector(OnlineDetector):
    """Streaming bypass counting per (thread, monitor).

    State is the live entry/wait sets (monitor -> {thread: arrival seq})
    plus the bypass counters; a bypass is a grant/wake of a thread while
    a STRICTLY EARLIER arrival is still queued (an overtake) — FIFO
    policies therefore score zero by construction.  Flagging happens in
    :meth:`finish`, since "still stuck at the end" is only knowable then.
    """

    name = "starvation"

    kinds = frozenset(
        {
            EventKind.MONITOR_REQUEST,
            EventKind.MONITOR_ACQUIRE,
            EventKind.MONITOR_WAIT,
            EventKind.MONITOR_NOTIFIED,
            EventKind.SEM_REQUEST,
            EventKind.SEM_ACQUIRE,
            EventKind.RW_REQUEST,
            EventKind.RW_ACQUIRE,
            EventKind.RW_DOWNGRADE,
            EventKind.WAIT_TIMEOUT,
            EventKind.INTERRUPT,
            EventKind.THREAD_END,
            EventKind.THREAD_CRASH,
        }
    )

    def __init__(
        self, bypass_threshold: int = 3, include_resolved: bool = False
    ) -> None:
        self.bypass_threshold = bypass_threshold
        self.include_resolved = include_resolved
        self._entry_sets: Dict[str, Dict[str, int]] = {}
        self._wait_sets: Dict[str, Dict[str, int]] = {}
        self._lock_bypasses: Dict[Tuple[str, str], int] = {}
        self._notify_bypasses: Dict[Tuple[str, str], int] = {}
        #: primitive kind per queued-on name ("semaphore"/"rwlock";
        #: absent means plain monitor) — picks the report kind.
        self._prim_kind: Dict[str, str] = {}
        #: mode of each thread's last rw request on a lock.
        self._rw_mode: Dict[Tuple[str, str], str] = {}
        #: thread -> monitor it is queued to reacquire after a wake
        self._reacquiring: Dict[str, str] = {}

    def reset(self) -> None:
        for state in (
            self._entry_sets,
            self._wait_sets,
            self._lock_bypasses,
            self._notify_bypasses,
            self._prim_kind,
            self._rw_mode,
            self._reacquiring,
        ):
            state.clear()

    def fold(self, events: Iterable[Event]) -> None:
        kinds = self.kinds
        entry_sets = self._entry_sets
        wait_sets = self._wait_sets
        lock_bypasses = self._lock_bypasses
        notify_bypasses = self._notify_bypasses
        reacquiring = self._reacquiring
        for event in events:
            kind = event.kind
            if kind not in kinds:
                continue
            monitor = event.monitor
            thread = event.thread
            if kind is _MONITOR_REQUEST:
                entry_sets.setdefault(monitor, {}).setdefault(thread, event.seq)
            elif kind is _MONITOR_ACQUIRE or kind in _PRIMITIVE_GRANTS:
                reacquiring.pop(thread, None)
                queued = entry_sets.setdefault(monitor, {})
                arrived = queued.pop(thread, event.seq)
                for bystander, bystander_arrived in queued.items():
                    if bystander_arrived < arrived:
                        key = (bystander, monitor)
                        lock_bypasses[key] = lock_bypasses.get(key, 0) + 1
            elif kind is _MONITOR_WAIT:
                wait_sets.setdefault(monitor, {}).setdefault(thread, event.seq)
            elif kind is _MONITOR_NOTIFIED:
                seq = event.seq
                waiters = wait_sets.setdefault(monitor, {})
                arrived = waiters.pop(thread, seq)
                for bystander, bystander_arrived in waiters.items():
                    if bystander_arrived < arrived:
                        key = (bystander, monitor)
                        notify_bypasses[key] = notify_bypasses.get(key, 0) + 1
                # the woken thread re-enters the entry set
                entry_sets.setdefault(monitor, {}).setdefault(thread, seq)
                reacquiring[thread] = monitor
            elif kind in _PRIMITIVE_REQUESTS:
                # Semaphore and rw-lock queues starve exactly like entry
                # sets: same arrival bookkeeping, different report kind.
                entry_sets.setdefault(monitor, {}).setdefault(thread, event.seq)
                if kind is _RW_REQUEST:
                    self._prim_kind[monitor] = "rwlock"
                    self._rw_mode[(thread, monitor)] = event.detail.get(
                        "mode", "read"
                    )
                else:
                    self._prim_kind[monitor] = "semaphore"
            elif kind is _WAIT_TIMEOUT:
                if event.detail.get("primitive") == "semaphore":
                    entry_sets.setdefault(monitor, {}).pop(thread, None)
            elif kind is _INTERRUPT:
                # An interrupted acquirer leaves its queue for good: a
                # primitive's, or a monitor's entry set on a fresh acquire
                # (MonitorObject.cancel).  A post-wait reacquirer stays
                # queued with the interrupt pending, so popping it here
                # would lose its arrival.
                kept = reacquiring.get(thread)
                for mon, queued in entry_sets.items():
                    if mon != kept:
                        queued.pop(thread, None)
            elif kind in _THREAD_EXITS:
                reacquiring.pop(thread, None)
                for queued in entry_sets.values():
                    queued.pop(thread, None)
                for waiters in wait_sets.values():
                    waiters.pop(thread, None)

    def _queue_kind(self, thread: str, monitor: str) -> str:
        """Report kind for a bypassed acquirer of ``monitor``."""
        prim = self._prim_kind.get(monitor)
        if prim == "semaphore":
            return "permit"
        if prim == "rwlock":
            mode = self._rw_mode.get((thread, monitor), "read")
            return "writer" if mode == "write" else "reader"
        return "lock"

    def finish(self) -> List[StarvationReport]:
        reports: List[StarvationReport] = []
        for (thread, monitor), count in sorted(self._lock_bypasses.items()):
            stuck = thread in self._entry_sets.get(monitor, {})
            if (count > self.bypass_threshold and (self.include_resolved or stuck)) or (
                stuck and count >= 1
            ):
                reports.append(
                    StarvationReport(
                        thread,
                        monitor,
                        self._queue_kind(thread, monitor),
                        count,
                        resolved=not stuck,
                    )
                )
        for (thread, monitor), count in sorted(self._notify_bypasses.items()):
            stuck = thread in self._wait_sets.get(monitor, {})
            if (count > self.bypass_threshold and (self.include_resolved or stuck)) or (
                stuck and count >= 1
            ):
                reports.append(
                    StarvationReport(
                        thread, monitor, "notify", count, resolved=not stuck
                    )
                )
        return reports

    def finding_count(self) -> int:
        # a report needs a bypass: FIFO queues never count one
        if not self._lock_bypasses and not self._notify_bypasses:
            return 0
        return len(self.finish())


def analyze_starvation(
    trace: Trace,
    bypass_threshold: int = 3,
    include_resolved: bool = False,
) -> List[StarvationReport]:
    """Count bypasses per (thread, monitor) and flag starvation.

    A report is produced when a thread was bypassed more than
    ``bypass_threshold`` times, unless it eventually proceeded and
    ``include_resolved`` is False; a thread bypassed at least once and
    still stuck at the end of the trace is always reported.  Replays the
    stored events through :class:`OnlineStarvationDetector`.
    """
    return replay(
        trace,
        OnlineStarvationDetector(
            bypass_threshold=bypass_threshold, include_resolved=include_resolved
        ),
    ).finish()
