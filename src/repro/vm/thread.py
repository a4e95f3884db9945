"""Simulated threads.

A :class:`SimThread` wraps a Python generator that represents the thread's
body.  The kernel drives the generator by sending it the result of its last
syscall; the generator's next ``yield`` delivers the next syscall.  Nested
calls (component methods) are ordinary ``yield from`` delegation, so the
whole thread is a single generator from the kernel's point of view.

Thread states mirror the places of the paper's Figure-1 model:

========== =====================================================
State       Figure-1 place
========== =====================================================
RUNNABLE    A or C (executing; which one depends on held locks)
BLOCKED     B (requesting a lock held by another thread)
WAITING     D (suspended on a wait set)
CLOCK_WAIT  — (awaiting the abstract testing clock; a ConAn-only
              state that does not exist in the paper's net)
========== =====================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Generator, List, Optional, Tuple

__all__ = ["ThreadState", "SimThread"]


class ThreadState(enum.Enum):
    NEW = "new"
    RUNNABLE = "runnable"
    BLOCKED = "blocked"        # in some primitive's acquire queue
    WAITING = "waiting"        # in a monitor's wait set or at a barrier
    CLOCK_WAIT = "clock_wait"  # awaiting an abstract-clock time
    TERMINATED = "terminated"
    CRASHED = "crashed"


@dataclass
class SimThread:
    """One simulated thread.

    Attributes:
        name: unique thread name within the kernel.
        body: the generator being driven.
        state: current lifecycle state.
        send_value: value to send into the generator on next resumption.
        throw_exc: exception to throw into the generator instead (used to
            deliver IllegalMonitorStateError at the faulting yield point).
        held: stack of (monitor_name, entry_count) for reentrancy; the top
            is the innermost synchronized block.
        blocked_on: while BLOCKED, the name of the primitive whose acquire
            queue holds the thread: a monitor's entry set, a semaphore,
            or a rw-lock.
        waiting_on: while WAITING, the name of the monitor whose wait set
            holds the thread, or of the barrier it is parked at.
        saved_entry_count: hold depth to restore after wait reacquisition.
        reacquiring: True when in an entry set because of notify (so the
            grant is a post-T5 reacquisition, not a fresh T2-after-T1).
        await_target: clock time awaited while CLOCK_WAIT.
        result: generator return value once TERMINATED.
        exception: unhandled exception once CRASHED.
        call_stack: (component, method) frames for event attribution.
        started_at / ended_at: kernel times of start and termination.
        context_switches: times this thread was scheduled when a
            *different* thread ran the previous step (kernel-maintained).
        blocked_ticks: total virtual time spent BLOCKED in acquire queues
            (kernel-maintained; open intervals are closed at run end).
        waiting_ticks: total virtual time spent WAITING in wait sets and
            at barriers, up to the wake — the post-notify reacquisition
            counts as blocked time, not waiting time.
        blocked_since / waiting_since: open-interval start times used by
            the kernel to maintain the two tick counters.
        interrupted: the Java-style interrupt flag.  Set by
            ``Kernel.interrupt`` on a runnable thread; consumed (cleared)
            when the thread next calls ``Wait``, which then raises
            ``InterruptedError`` immediately.
        pending_interrupt: set when an interrupt wakes a waiting/blocked
            thread; the kernel delivers ``InterruptedError`` once the
            monitor has been reacquired (JVM semantics), then clears it.
        deadline: virtual time at which the current timed park (a timed
            monitor wait or semaphore acquire) expires, or ``None`` when
            the thread is not parked or parked without a timeout.
        waits_entered: total waits this thread has entered (the per-thread
            wait ordinal fault-plan triggers count).
        blocked_arg: what the BLOCKED thread asked its primitive for: the
            permits needed (semaphore) or the mode "read"/"write"
            (rw-lock).
    """

    name: str
    body: Generator[Any, Any, Any]
    state: ThreadState = ThreadState.NEW
    send_value: Any = None
    throw_exc: Optional[BaseException] = None
    held: List[Tuple[str, int]] = field(default_factory=list)
    blocked_on: Optional[str] = None
    waiting_on: Optional[str] = None
    saved_entry_count: int = 0
    reacquiring: bool = False
    await_target: Optional[int] = None
    result: Any = None
    exception: Optional[BaseException] = None
    call_stack: List[Tuple[str, str]] = field(default_factory=list)
    started_at: Optional[int] = None
    ended_at: Optional[int] = None
    context_switches: int = 0
    blocked_ticks: int = 0
    waiting_ticks: int = 0
    blocked_since: Optional[int] = None
    waiting_since: Optional[int] = None
    interrupted: bool = False
    pending_interrupt: bool = False
    deadline: Optional[int] = None
    waits_entered: int = 0
    blocked_arg: Any = None

    def innermost_monitor(self) -> Optional[str]:
        """Name of the monitor of the innermost synchronized block, or
        ``None`` when the thread holds no lock."""
        return self.held[-1][0] if self.held else None

    def holds(self, monitor: str) -> bool:
        return any(m == monitor for m, _ in self.held)

    def hold_depth(self, monitor: str) -> int:
        return sum(c for m, c in self.held if m == monitor)

    def push_hold(self, monitor: str) -> None:
        """Record one more hold of ``monitor`` (reentrant acquires stack)."""
        self.held.append((monitor, 1))

    def pop_hold(self, monitor: str) -> None:
        """Remove the innermost hold of ``monitor``."""
        for i in range(len(self.held) - 1, -1, -1):
            if self.held[i][0] == monitor:
                del self.held[i]
                return
        raise ValueError(f"{self.name} does not hold {monitor}")

    def is_live(self) -> bool:
        return self.state not in (ThreadState.TERMINATED, ThreadState.CRASHED)

    def current_frame(self) -> Tuple[Optional[str], Optional[str]]:
        """(component, method) of the innermost active call, or (None, None)."""
        if self.call_stack:
            return self.call_stack[-1]
        return (None, None)

    def yield_line(self) -> Optional[int]:
        """Source line of the innermost yield the thread is suspended at.

        Walks the ``yield from`` delegation chain so the line points into
        the component method, not the ``@synchronized`` wrapper.  This is
        what lets the coverage tracker match a runtime wait/notify event to
        the static CoFG node built from the same source."""
        gen = self.body
        while True:
            inner = getattr(gen, "gi_yieldfrom", None)
            if inner is None or not hasattr(inner, "gi_frame"):
                break
            gen = inner
        frame = getattr(gen, "gi_frame", None)
        return frame.f_lineno if frame is not None else None

    def __repr__(self) -> str:
        return f"SimThread({self.name!r}, {self.state.value})"
