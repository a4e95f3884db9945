"""Monitor objects: lock owner, entry set, wait set, and selection policies.

A Java object used for synchronization has three pieces of state the paper's
model cares about: who owns the lock (place ``C`` vs ``E``), which threads
are blocked trying to enter (place ``B``), and which threads are waiting
(place ``D``).  :class:`MonitorObject` holds exactly that.

Two nondeterministic choices in the JVM are made explicit, pluggable
policies here because the paper's failure classification hinges on them:

* **lock-grant policy** — which entry-set thread receives a released lock.
  The JVM "is not required to be fair" (Section 5.2.1, FF-T2); an unfair
  policy can starve a thread forever.
* **notify-selection policy** — which waiter ``notify()`` wakes.  The JVM
  "arbitrarily select[s] a waiting thread" (Section 3.2); an unfair policy
  can leave one waiter unnotified forever (FF-T5).

:class:`MonitorObject` implements the kernel's primitive protocol
(:class:`~repro.vm.primitives.Primitive`): its grant is T2 out of the
entry set, its wake is T5, and its cancel is the wait exit Java permits
besides notify — interrupt, timeout, or spurious wakeup.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar, List, Optional

from .events import EventKind, WakeReason
from .thread import SimThread, ThreadState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Kernel
    from .waitq import WaitQueue

__all__ = ["SelectionPolicy", "MonitorObject", "select_index"]


class SelectionPolicy(enum.Enum):
    """How a thread is chosen from an entry set or wait set.

    FIFO: oldest first (a fair JVM).  LIFO: newest first (maximally unfair
    — the canonical starvation adversary).  RANDOM: uniform, seeded at the
    kernel.  ADVERSARIAL_LAST: always bypass the longest-waiting thread if
    any alternative exists (starves one victim while staying plausible).
    """

    FIFO = "fifo"
    LIFO = "lifo"
    RANDOM = "random"
    ADVERSARIAL_LAST = "adversarial_last"


def select_index(
    policy: SelectionPolicy, n: int, rng: Optional[random.Random]
) -> int:
    """Pick an index into a queue of ``n`` candidates under ``policy``."""
    if n <= 0:
        raise ValueError("selection from empty candidate set")
    if policy is SelectionPolicy.FIFO:
        return 0
    if policy is SelectionPolicy.LIFO:
        return n - 1
    if policy is SelectionPolicy.RANDOM:
        if rng is None:
            raise ValueError("RANDOM policy requires an RNG")
        return rng.randrange(n)
    if policy is SelectionPolicy.ADVERSARIAL_LAST:
        return 1 if n > 1 else 0
    raise ValueError(f"unknown policy {policy!r}")


_BLOCKED = ThreadState.BLOCKED
_MONITOR_ACQUIRE = EventKind.MONITOR_ACQUIRE
_MONITOR_NOTIFIED = EventKind.MONITOR_NOTIFIED
_SPURIOUS_WAKEUP = EventKind.SPURIOUS_WAKEUP
_WAIT_TIMEOUT = EventKind.WAIT_TIMEOUT
_INTERRUPT = WakeReason.INTERRUPT
_TIMEOUT = WakeReason.TIMEOUT
_SPURIOUS = WakeReason.SPURIOUS


@dataclass
class MonitorObject:
    """The synchronization state of one object.

    Both queues are :class:`~repro.vm.waitq.WaitQueue` instances — the
    primitive-agnostic wait-queue core shared with semaphores, rw-locks,
    and barriers; they behave exactly like the arrival-ordered
    ``List[str]`` they replaced for iteration, indexing, and equality.

    Attributes:
        name: unique monitor name within the kernel.
        owner: name of the owning thread, or ``None`` when the lock is free
            (the token in place ``E``).
        entry_count: reentrant hold depth of the owner (Java monitors are
            reentrant; ``wait`` releases all holds and restores them on
            reacquisition).
        entry_set: threads blocked trying to acquire, in arrival order.
        wait_set: threads suspended by ``wait``, in arrival order.

    The metrics counters below are updated where the state above
    changes, and are left out of equality, ``repr`` and
    :meth:`snapshot`: ``acquisitions`` (outermost holds), ``hold_ticks``
    (virtual time of the closed holds; ``hold_since`` stamps the open
    one), ``contended_ticks`` (time acquirers spent blocked: each
    grant's ``blocked_for``, from the request, or for a woken waiter
    from its wake; :class:`repro.detect.contention.MonitorProfile`
    counts that reacquisition as wait time instead), ``entry_peak``
    (the most threads requesting the lock at once, the requester
    counted until it holds it), ``wait_peak`` and ``lost_notifies``
    (notifies that woke nobody).
    """

    KIND: ClassVar[str] = "monitor"

    name: str
    owner: Optional[str] = None
    entry_count: int = 0
    entry_set: "WaitQueue" = field(default_factory=lambda: _new_queue())
    wait_set: "WaitQueue" = field(default_factory=lambda: _new_queue())
    acquisitions: int = field(default=0, compare=False, repr=False)
    hold_ticks: int = field(default=0, compare=False, repr=False)
    hold_since: int = field(default=0, compare=False, repr=False)
    contended_ticks: int = field(default=0, compare=False, repr=False)
    entry_peak: int = field(default=0, compare=False, repr=False)
    wait_peak: int = field(default=0, compare=False, repr=False)
    lost_notifies: int = field(default=0, compare=False, repr=False)

    def is_free(self) -> bool:
        return self.owner is None

    def is_owned_by(self, thread: str) -> bool:
        return self.owner == thread

    def acquire_by(self, thread: str, count: int = 1, now: int = 0) -> None:
        """Grant the free lock to ``thread`` with hold depth ``count``,
        opening an outermost hold at virtual time ``now``."""
        assert self.owner is None, f"monitor {self.name} already owned"
        self.owner = thread
        self.entry_count = count
        self.acquisitions += 1
        self.hold_since = now

    def free(self, now: int) -> None:
        """Release every hold on the lock, closing the outermost hold at
        virtual time ``now``."""
        self.owner = None
        self.entry_count = 0
        self.hold_ticks += now - self.hold_since

    def add_blocked(self, thread: str) -> None:
        self.entry_set.add(thread)

    def remove_blocked(self, thread: str) -> None:
        self.entry_set.remove(thread)

    def add_waiter(self, thread: str) -> None:
        self.wait_set.add(thread)

    def remove_waiter(self, thread: str) -> None:
        self.wait_set.remove(thread)

    def select_blocked(
        self, policy: SelectionPolicy, rng: Optional[random.Random]
    ) -> str:
        """Choose (and remove) the next entry-set thread to grant the lock."""
        return self.entry_set.pop_select(policy, rng)

    def select_waiter(
        self, policy: SelectionPolicy, rng: Optional[random.Random]
    ) -> str:
        """Choose (and remove) the waiter a ``notify`` will wake."""
        return self.wait_set.pop_select(policy, rng)

    # -- the primitive protocol ------------------------------------------

    def admissible(self, thread: Optional[str], request: Any = None) -> bool:
        """``thread`` may take the lock: it is free, or ``thread`` owns it
        already (a reentrant acquire).  Grant loops pass ``None``."""
        return self.owner is None or self.owner == thread

    def grant(self, kernel: "Kernel") -> None:
        """If the lock is free and the entry set is nonempty, grant it to
        the thread the lock policy chooses (T2, or the reacquisition after
        a T5, which restores the saved hold depth)."""
        if not self.entry_set or not self.admissible(None):
            return
        chosen = self.entry_set.pop_select(
            kernel.lock_policy, kernel.rng_for(kernel.lock_policy)
        )
        thread = kernel.threads[chosen]
        if thread.reacquiring:
            depth = thread.saved_entry_count
            thread.saved_entry_count = 0
            thread.reacquiring = False
            if thread.pending_interrupt:
                # JVM semantics: the InterruptedException of an interrupted
                # wait is raised only after the monitor is reacquired.
                thread.pending_interrupt = False
                thread.throw_exc = InterruptedError(
                    f"thread {chosen!r} interrupted while waiting on "
                    f"{self.name!r}"
                )
        else:
            depth = 1
        self.acquire_by(chosen, depth, kernel.time)
        for _ in range(depth):
            thread.push_hold(self.name)
        blocked_for = kernel.unpark(thread)
        self.contended_ticks += blocked_for
        kernel.emit(
            chosen,
            _MONITOR_ACQUIRE,
            monitor=self.name,
            count=depth,
            blocked_for=blocked_for,
        )

    def wake(self, kernel: "Kernel", waiter: str, by: str, reason: WakeReason) -> None:
        """Move a waiter, already taken out of the wait set, to the entry
        set (T5: D -> B).  ``reason`` records *why* the wait exited —
        notify, notifyAll, interrupt, timeout, or spurious — in the
        MONITOR_NOTIFIED event, so saved traces reproduce faulted runs
        byte-identically."""
        thread = kernel.threads[waiter]
        kernel.unpark(thread)
        thread.reacquiring = True
        if reason is _INTERRUPT:
            thread.pending_interrupt = True
        queued = self.entry_set.add(waiter)
        if queued > self.entry_peak:
            self.entry_peak = queued
        kernel.park(thread, self.name)
        kernel.emit(
            waiter,
            _MONITOR_NOTIFIED,
            monitor=self.name,
            by=by,
            spurious=reason is _SPURIOUS,
            reason=reason.value,
        )

    def cancel(
        self, kernel: "Kernel", thread: SimThread, reason: WakeReason, by: str
    ) -> None:
        """End ``thread``'s wait or acquire without a notify or a grant.

        A waiter is woken with ``reason`` and competes for the lock again;
        an interrupted one gets ``InterruptedError`` once it holds it.  An
        interrupted acquirer leaves the entry set with ``InterruptedError``,
        unless it is reacquiring after a wake: then the error waits for
        the reacquisition, like an interrupted wait."""
        name = thread.name
        if thread.state is _BLOCKED:
            if thread.reacquiring:
                thread.pending_interrupt = True
                return
            self.entry_set.remove(name)
            kernel.unpark(thread)
            thread.throw_exc = InterruptedError(
                f"thread {name!r} interrupted while blocked acquiring "
                f"{self.name!r}"
            )
            return
        self.wait_set.remove(name)
        if reason is _TIMEOUT:
            kernel.emit(
                name, _WAIT_TIMEOUT, monitor=self.name, by=by, deadline=thread.deadline
            )
        elif reason is _SPURIOUS:
            kernel.emit(name, _SPURIOUS_WAKEUP, monitor=self.name)
        self.wake(kernel, name, by, reason)
        # Unlike notify (where the notifier still holds the lock), these
        # exits can hit a free monitor: grant immediately.
        self.grant(kernel)

    def expirable(self, thread: SimThread) -> bool:
        """Any wait, timed or not, can be forced to time out; an entry-set
        acquire cannot."""
        return thread.state is not _BLOCKED

    def waits_on(self, thread: SimThread) -> List[str]:
        """An acquirer waits on the single owner."""
        return [self.owner] if self.owner is not None else []

    def snapshot(self) -> dict:
        """A plain-data view for diagnostics and exploration hashing."""
        return {
            "name": self.name,
            "owner": self.owner,
            "entry_count": self.entry_count,
            "entry_set": self.entry_set.snapshot(),
            "wait_set": self.wait_set.snapshot(),
        }


#: :class:`~repro.vm.waitq.WaitQueue`, looked up on first use (that
#: module imports this one)
_WaitQueue: Any = None


def _new_queue() -> "WaitQueue":
    global _WaitQueue
    if _WaitQueue is None:
        from .waitq import WaitQueue

        _WaitQueue = WaitQueue
    return _WaitQueue()
