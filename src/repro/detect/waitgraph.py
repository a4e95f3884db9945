"""Wait-for-graph analysis: *actual* deadlock in a finished run.

Complements :mod:`repro.detect.lockgraph` (which finds deadlocks that
*could* happen under another schedule): this module reconstructs, from the
trace alone, which threads were blocked on which monitors when the run
ended, who owned those monitors, and whether the blocked-on relation
contains a cycle.  It reproduces the kernel's own quiescence diagnosis but
works on any stored trace, so post-mortem analysis does not need the
kernel object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.vm.events import EDGE_KINDS, Event, EventKind
from repro.vm.trace import Trace
from repro.vm.waitq import find_cycle

from repro.run.registry import register_detector

from .online import OnlineDetector, replay

__all__ = [
    "WaitForState",
    "OnlineWaitGraphDetector",
    "reconstruct_final_state",
    "find_deadlock_cycle",
]

# Event kinds bound to module names: function bodies read these, never
# ``EventKind.X`` (a Python-level enum class lookup before 3.12).
_THREAD_END = EventKind.THREAD_END
_THREAD_CRASH = EventKind.THREAD_CRASH
_MONITOR_REQUEST = EventKind.MONITOR_REQUEST
_MONITOR_ACQUIRE = EventKind.MONITOR_ACQUIRE
_MONITOR_WAIT = EventKind.MONITOR_WAIT
_MONITOR_RELEASE = EventKind.MONITOR_RELEASE
_MONITOR_NOTIFIED = EventKind.MONITOR_NOTIFIED
_INTERRUPT = EventKind.INTERRUPT
_WAIT_TIMEOUT = EventKind.WAIT_TIMEOUT
_SEM_REQUEST = EventKind.SEM_REQUEST
_SEM_ACQUIRE = EventKind.SEM_ACQUIRE
_SEM_RELEASE = EventKind.SEM_RELEASE
_RW_REQUEST = EventKind.RW_REQUEST
_RW_ACQUIRE = EventKind.RW_ACQUIRE
_RW_RELEASE = EventKind.RW_RELEASE
_RW_DOWNGRADE = EventKind.RW_DOWNGRADE
_BARRIER_AWAIT = EventKind.BARRIER_AWAIT
_BARRIER_RESUME = EventKind.BARRIER_RESUME
_BARRIER_BROKEN = EventKind.BARRIER_BROKEN

_RW_GRANTS = frozenset({_RW_ACQUIRE, _RW_DOWNGRADE})
_THREAD_EXITS = frozenset({_THREAD_END, _THREAD_CRASH})

#: kinds that add a blocked-on edge or redirect an ownership edge: the
#: only events after which a new cycle can appear (the kernel hands a
#: batch over after a step that emitted one; see Kernel.park)
_CYCLE_KINDS = EDGE_KINDS


@dataclass
class WaitForState:
    """Final synchronization state reconstructed from a trace.

    Attributes:
        owner: monitor -> owning thread (monitors absent are free).
        blocked_on: thread -> primitive it was blocked acquiring (monitor,
            semaphore, or rw-lock; see ``request_kind``).
        waiting_on: thread -> monitor whose wait set (or barrier whose
            party queue) it sat in.
        request_kind: thread -> "monitor" | "semaphore" | "rwlock" for
            entries of ``blocked_on`` (absent means monitor).
        sem_held: semaphore -> thread -> permits currently attributed.
        sem_available: semaphore -> last known available-permit count
            (from the ``available`` detail of grant/release events).
        sem_req_n: thread -> permits its outstanding acquire asked for.
        rw_held: rw-lock -> thread -> hold depth across both modes.
        rw_writer: rw-lock -> active writer thread.
        rw_req_mode: thread -> mode of its outstanding rw acquire.
        reacquiring: thread -> monitor it is queued to reacquire after
            a wake (its ``blocked_on`` entry came from a
            MONITOR_NOTIFIED, not a MONITOR_REQUEST).
    """

    owner: Dict[str, str] = field(default_factory=dict)
    blocked_on: Dict[str, str] = field(default_factory=dict)
    waiting_on: Dict[str, str] = field(default_factory=dict)
    request_kind: Dict[str, str] = field(default_factory=dict)
    sem_held: Dict[str, Dict[str, int]] = field(default_factory=dict)
    sem_available: Dict[str, int] = field(default_factory=dict)
    sem_req_n: Dict[str, int] = field(default_factory=dict)
    rw_held: Dict[str, Dict[str, int]] = field(default_factory=dict)
    rw_writer: Dict[str, str] = field(default_factory=dict)
    rw_req_mode: Dict[str, str] = field(default_factory=dict)
    reacquiring: Dict[str, str] = field(default_factory=dict)

    def _clear_request(self, thread: str) -> None:
        """Drop the outstanding-acquire bookkeeping of ``thread``."""
        self.blocked_on.pop(thread, None)
        self.request_kind.pop(thread, None)
        self.sem_req_n.pop(thread, None)
        self.rw_req_mode.pop(thread, None)
        self.reacquiring.pop(thread, None)


def _cycle_of(state: WaitForState) -> List[str]:
    """A blocked-on cycle in the given state, in cycle order ([] if none).

    Monitor edges point at the single owner.  Semaphore edges fan out to
    every permit holder — unless the last known permit count already
    covers the request with nobody else queued, in which case the grant
    event is imminent and no edge exists yet.  A write-blocked rw
    acquirer waits on every holder (including itself when it holds read —
    the unsupported j.u.c upgrade shows as a self-cycle); a read-blocked
    acquirer waits on the active writer, or on the queued writers holding
    it back under writer preference.  Starts are sorted, as the
    pre-primitive chain walk's were.
    """
    if not state.blocked_on:  # no blocked thread, no edge
        return []
    edges: Dict[str, List[str]] = {}
    for thread, target in state.blocked_on.items():
        kind = state.request_kind.get(thread, "monitor")
        if kind == "semaphore":
            need = state.sem_req_n.get(thread, 1)
            available = state.sem_available.get(target)
            queued = [
                t
                for t, m in state.blocked_on.items()
                if m == target
                and t != thread
                and state.request_kind.get(t) == "semaphore"
            ]
            if available is not None and available >= need and not queued:
                succ: List[str] = []
            else:
                succ = sorted(state.sem_held.get(target, {}))
        elif kind == "rwlock":
            if state.rw_req_mode.get(thread) == "read":
                writer = state.rw_writer.get(target)
                if writer is not None:
                    succ = [writer]
                else:
                    succ = sorted(
                        t
                        for t, m in state.blocked_on.items()
                        if m == target
                        and state.rw_req_mode.get(t) == "write"
                    )
            else:
                succ = sorted(state.rw_held.get(target, {}))
        else:
            owner = state.owner.get(target)
            succ = [owner] if owner is not None and owner != thread else []
        if succ:
            edges[thread] = succ
    return find_cycle(edges, starts=sorted(edges))


@register_detector("waitgraph")
class OnlineWaitGraphDetector(OnlineDetector):
    """Streaming wait-for-graph maintenance with live cycle detection.

    Unlike the lock-order graph (whose cycles are merely *potential*
    failures), a blocked-on cycle is a failure the moment it forms: every
    thread in it is BLOCKED acquiring a lock held by the next, none can
    release anything, and spurious wakeups only affect WAITING threads —
    the cycle is permanent.  That makes it safe to report via
    :meth:`abort_reason` and end the run early; the kernel's own
    quiescence diagnosis then yields the same DEADLOCK status a
    run-to-quiescence would.

    It folds like every detector: the kernel hands a batch over at the
    end of each step in which a cycle can close
    (:meth:`~repro.vm.kernel.Kernel.park`), so the poll after that batch
    still stops the run on the step that closed the cycle.
    """

    name = "waitgraph"

    kinds = frozenset(
        {
            EventKind.MONITOR_REQUEST,
            EventKind.MONITOR_ACQUIRE,
            EventKind.MONITOR_RELEASE,
            EventKind.MONITOR_WAIT,
            EventKind.MONITOR_NOTIFIED,
            EventKind.SEM_REQUEST,
            EventKind.SEM_ACQUIRE,
            EventKind.SEM_RELEASE,
            EventKind.RW_REQUEST,
            EventKind.RW_ACQUIRE,
            EventKind.RW_DOWNGRADE,
            EventKind.RW_RELEASE,
            EventKind.BARRIER_AWAIT,
            EventKind.BARRIER_RESUME,
            EventKind.BARRIER_BROKEN,
            EventKind.WAIT_TIMEOUT,
            EventKind.INTERRUPT,
            EventKind.THREAD_END,
            EventKind.THREAD_CRASH,
        }
    )

    def __init__(self) -> None:
        self.state = WaitForState()
        self._hold_count: Dict[Tuple[str, str], int] = {}
        #: first blocked-on cycle seen while streaming ([] until then)
        self.live_cycle: List[str] = []

    def reset(self) -> None:
        for table in vars(self.state).values():
            table.clear()
        self._hold_count.clear()
        self.live_cycle = []

    def fold(self, events: Iterable[Event]) -> None:
        state = self.state
        owner, blocked_on, waiting_on = state.owner, state.blocked_on, state.waiting_on
        clear_request = state._clear_request
        reacquiring = state.reacquiring
        hold_count = self._hold_count
        kinds = self.kinds
        for event in events:
            kind = event.kind
            if kind not in kinds:
                continue
            thread = event.thread
            monitor = event.monitor
            if kind is _MONITOR_REQUEST:
                # Blocked until a matching ACQUIRE appears.
                if owner.get(monitor) != thread:
                    blocked_on[thread] = monitor
            elif kind is _MONITOR_ACQUIRE:
                blocked_on.pop(thread, None)
                reacquiring.pop(thread, None)
                owner[monitor] = thread
                key = (thread, monitor)
                hold_count[key] = hold_count.get(key, 0) + event.detail.get("count", 1)
            elif kind is _MONITOR_RELEASE:
                key = (thread, monitor)
                left = hold_count.get(key, 1) - 1
                if left > 0:
                    hold_count[key] = left
                else:
                    hold_count.pop(key, None)
                    if owner.get(monitor) == thread:
                        del owner[monitor]
            elif kind is _MONITOR_WAIT:
                hold_count.pop((thread, monitor), None)
                if owner.get(monitor) == thread:
                    del owner[monitor]
                waiting_on[thread] = monitor
            elif kind is _MONITOR_NOTIFIED:
                waiting_on.pop(thread, None)
                blocked_on[thread] = monitor
                reacquiring[thread] = monitor
            elif kind is _SEM_REQUEST:
                blocked_on[thread] = monitor
                state.request_kind[thread] = "semaphore"
                state.sem_req_n[thread] = event.detail.get("n", 1)
            elif kind is _SEM_ACQUIRE:
                clear_request(thread)
                detail = event.detail
                held = state.sem_held.setdefault(monitor, {})
                held[thread] = held.get(thread, 0) + detail.get("n", 1)
                state.sem_available[monitor] = detail.get("available", 0)
            elif kind is _SEM_RELEASE:
                detail = event.detail
                held = state.sem_held.setdefault(monitor, {})
                left = held.get(thread, 0) - detail.get("n", 1)
                if left > 0:
                    held[thread] = left
                else:
                    held.pop(thread, None)
                state.sem_available[monitor] = detail.get("available", 0)
            elif kind is _RW_REQUEST:
                # The writer's reentrant write request and a holder's read
                # request (reentrant read, or the never-blocking downgrade)
                # are granted in the same step; a read-only holder
                # requesting write genuinely blocks on itself — the
                # unsupported j.u.c upgrade — and must stay marked.
                mode = event.detail.get("mode", "read")
                is_writer = state.rw_writer.get(monitor) == thread
                holds = thread in state.rw_held.get(monitor, {})
                if (mode == "write" and not is_writer) or (
                    mode == "read" and not holds
                ):
                    blocked_on[thread] = monitor
                    state.request_kind[thread] = "rwlock"
                    state.rw_req_mode[thread] = mode
            elif kind in _RW_GRANTS:
                clear_request(thread)
                held = state.rw_held.setdefault(monitor, {})
                held[thread] = held.get(thread, 0) + 1
                if kind is _RW_ACQUIRE and event.detail.get("mode") == "write":
                    state.rw_writer[monitor] = thread
            elif kind is _RW_RELEASE:
                held = state.rw_held.setdefault(monitor, {})
                left = held.get(thread, 0) - 1
                if left > 0:
                    held[thread] = left
                else:
                    held.pop(thread, None)
                detail = event.detail
                if (
                    detail.get("mode") == "write"
                    and not detail.get("reentrant")
                    and state.rw_writer.get(monitor) == thread
                ):
                    del state.rw_writer[monitor]
            elif kind is _BARRIER_AWAIT:
                if not event.detail.get("broken"):
                    waiting_on[thread] = monitor
            elif kind is _BARRIER_RESUME:
                waiting_on.pop(thread, None)
            elif kind is _BARRIER_BROKEN:
                for waiter in event.detail.get("waiters", ()):
                    waiting_on.pop(waiter, None)
            elif kind is _WAIT_TIMEOUT:
                if event.detail.get("primitive") == "semaphore":
                    # A failed timed tryAcquire: the thread resumed with
                    # False and no SEM_ACQUIRE will follow.
                    clear_request(thread)
            elif kind is _INTERRUPT:
                # An interrupted primitive acquirer resumes immediately (no
                # grant event follows), and so does a fresh monitor
                # acquirer: MonitorObject.cancel takes it out of the entry
                # set.  A thread reacquiring a monitor after a wake stays
                # queued, its interrupt pending until it holds the lock.
                if state.request_kind.get(thread) in ("semaphore", "rwlock"):
                    clear_request(thread)
                elif thread in blocked_on and thread not in reacquiring:
                    del blocked_on[thread]
            elif kind in _THREAD_EXITS:
                clear_request(thread)
                waiting_on.pop(thread, None)
            # A new cycle needs a new edge.  With only monitor edges, that
            # is the one a request or notify adds behind a blocked owner (a
            # grant points edges at a running thread).
            if kind in _CYCLE_KINDS and not self.live_cycle and (
                state.request_kind
                or (kind is _MONITOR_REQUEST or kind is _MONITOR_NOTIFIED)
                and owner.get(monitor) in blocked_on
            ):
                self.live_cycle = _cycle_of(state)

    def abort_reason(self) -> Optional[str]:
        if self.live_cycle:
            return f"wait-for cycle: {' -> '.join(self.live_cycle)}"
        return None

    def finish(self) -> List[str]:
        """The blocked-on cycle present in the *final* state ([] if none)."""
        return _cycle_of(self.state)


def reconstruct_final_state(trace: Trace) -> WaitForState:
    """Replay monitor-protocol events to the end of the trace."""
    detector = OnlineWaitGraphDetector()
    replay(trace, detector)
    return detector.state


def find_deadlock_cycle(trace: Trace) -> List[str]:
    """Threads forming a blocked-on cycle at the end of the trace, in
    cycle order ([] when there is none; replays the stored events through
    :class:`OnlineWaitGraphDetector`)."""
    return replay(trace, OnlineWaitGraphDetector()).finish()
