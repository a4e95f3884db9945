"""Event vocabulary of the monitor VM.

Every observable action of a simulated thread produces one :class:`Event`
in the kernel trace.  The five monitor-protocol events correspond exactly
to the transitions of the paper's Figure-1 Petri net (see
:data:`TRANSITION_OF_EVENT`), so a per-thread event trace projects directly
onto a firing sequence of the model — the bridge between dynamic execution
and the failure classification.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = ["EventKind", "Event", "TRANSITION_OF_EVENT", "WakeReason"]


class WakeReason(enum.Enum):
    """Why a waiting thread left the wait set (the cause of its T5).

    Serialized by value into the ``reason`` detail of MONITOR_NOTIFIED
    events, so saved traces record *how* every wait exited — the notify
    path the paper models, plus the three environment exits (interrupt,
    timeout, spurious wakeup) Java permits.
    """

    NOTIFY = "notify"
    NOTIFY_ALL = "notify_all"
    INTERRUPT = "interrupt"
    TIMEOUT = "timeout"
    SPURIOUS = "spurious"


class EventKind(enum.Enum):
    """Kinds of trace events emitted by the kernel."""

    THREAD_START = "thread_start"
    THREAD_END = "thread_end"
    THREAD_CRASH = "thread_crash"

    # Monitor protocol — these five map onto Petri transitions T1..T5.
    MONITOR_REQUEST = "monitor_request"    # T1: thread asks for the lock
    MONITOR_ACQUIRE = "monitor_acquire"    # T2: JVM grants the lock
    MONITOR_WAIT = "monitor_wait"          # T3: wait(): suspend + release
    MONITOR_RELEASE = "monitor_release"    # T4: leave synchronized block
    MONITOR_NOTIFIED = "monitor_notified"  # T5: woken, re-contends for lock

    # Notification as performed by the *notifier* (the dashed arc of Fig 1).
    NOTIFY = "notify"
    NOTIFY_ALL = "notify_all"
    SPURIOUS_WAKEUP = "spurious_wakeup"

    # Environment faults: a thread's interrupt flag being set, and a timed
    # wait expiring on virtual time.  The woken thread's T5 is still a
    # MONITOR_NOTIFIED event; its ``reason`` detail carries the WakeReason.
    INTERRUPT = "interrupt"
    WAIT_TIMEOUT = "wait_timeout"

    # Counting semaphore protocol — transitions S1..S3 of the semaphore
    # net (the ``monitor`` field names the semaphore).
    SEM_REQUEST = "sem_request"    # S1: thread asks for permits
    SEM_ACQUIRE = "sem_acquire"    # S2: kernel grants the permits
    SEM_RELEASE = "sem_release"    # S3: permits returned

    # Read-write lock protocol — transitions R1..R4 (the ``monitor``
    # field names the lock; ``detail['mode']`` is "read" or "write").
    RW_REQUEST = "rw_request"      # R1: thread asks for the lock in a mode
    RW_ACQUIRE = "rw_acquire"      # R2: kernel grants the mode
    RW_RELEASE = "rw_release"      # R3: hold released
    RW_DOWNGRADE = "rw_downgrade"  # R4: write holder acquires read (j.u.c
    #                                    downgrade; never blocks)

    # Cyclic barrier protocol — transitions B1..B2.  BARRIER_RESUME marks
    # each released waiter (the per-thread echo of the trip, like
    # MONITOR_NOTIFIED echoes NOTIFY); BARRIER_BROKEN marks the barrier
    # breaking on interrupt, j.u.c BrokenBarrierException semantics.
    BARRIER_AWAIT = "barrier_await"    # B1: thread arrives and suspends
    BARRIER_TRIP = "barrier_trip"      # B2: last party arrives, all release
    BARRIER_RESUME = "barrier_resume"
    BARRIER_BROKEN = "barrier_broken"

    # Component method call boundaries (completion-time checking).
    CALL_BEGIN = "call_begin"
    CALL_END = "call_end"

    # Shared-state accesses (lockset race detection).
    READ = "read"
    WRITE = "write"

    # Abstract testing clock (ConAn).
    CLOCK_AWAIT = "clock_await"
    CLOCK_RESUME = "clock_resume"
    CLOCK_TICK = "clock_tick"

    # Pure scheduling point.
    YIELD = "yield"


#: Petri-net transition exercised by each protocol event: the paper's
#: monitor transitions T1..T5, plus the Table-1-style labels of the
#: first-class primitive protocols (semaphore S1..S3, rw-lock R1..R4,
#: barrier B1..B2) the reproduction extends the model with.
TRANSITION_OF_EVENT: Dict[EventKind, str] = {
    EventKind.MONITOR_REQUEST: "T1",
    EventKind.MONITOR_ACQUIRE: "T2",
    EventKind.MONITOR_WAIT: "T3",
    EventKind.MONITOR_RELEASE: "T4",
    EventKind.MONITOR_NOTIFIED: "T5",
    EventKind.SEM_REQUEST: "S1",
    EventKind.SEM_ACQUIRE: "S2",
    EventKind.SEM_RELEASE: "S3",
    EventKind.RW_REQUEST: "R1",
    EventKind.RW_ACQUIRE: "R2",
    EventKind.RW_RELEASE: "R3",
    EventKind.RW_DOWNGRADE: "R4",
    EventKind.BARRIER_AWAIT: "B1",
    EventKind.BARRIER_TRIP: "B2",
}


@dataclass(frozen=True, slots=True)
class Event:
    """One observable action in a VM execution.

    Events are immutable because every sink and detector of a run shares
    the same object.  They are slotted, so each costs no per-instance
    ``__dict__``; :meth:`Kernel.emit <repro.vm.kernel.Kernel.emit>` fills
    the slots directly instead of calling the generated ``__init__``.

    Attributes:
        seq: global sequence number (unique, dense from 0).
        time: kernel virtual time (one unit per scheduling step).
        thread: name of the acting thread (for MONITOR_NOTIFIED, the woken
            thread; the notifier appears in ``detail['by']``).
        kind: the event kind.
        monitor: name of the monitor involved, if any.
        component: registered name of the component, for call/access events.
        method: component method name, for call events and accesses that
            occur inside one.
        detail: kind-specific payload (field name for READ/WRITE, clock
            times for clock events, woken threads for NOTIFY_ALL, ...).
    """

    seq: int
    time: int
    thread: str
    kind: EventKind
    monitor: Optional[str] = None
    component: Optional[str] = None
    method: Optional[str] = None
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def transition(self) -> Optional[str]:
        """The Figure-1 transition this event exercises, or ``None``."""
        return TRANSITION_OF_EVENT.get(self.kind)

    def __str__(self) -> str:
        parts = [f"#{self.seq}", f"t={self.time}", self.thread, self.kind.value]
        if self.monitor:
            parts.append(f"mon={self.monitor}")
        if self.method:
            parts.append(f"{self.component}.{self.method}")
        if self.detail:
            parts.append(repr(self.detail))
        return " ".join(parts)
