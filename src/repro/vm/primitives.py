"""The primitive protocol, and the primitives beyond monitors.

Every blocking primitive in the VM — monitors, counting semaphores,
read-write locks, cyclic barriers — implements one small
:class:`Primitive` protocol over the :class:`~repro.vm.waitq.WaitQueue`
core, the way each primitive is one uniform building block of the
paper's Figure-1 net.  A primitive parks a thread in one of its queues
with :meth:`Kernel.park <repro.vm.kernel.Kernel.park>` and resumes it
with :meth:`Kernel.unpark <repro.vm.kernel.Kernel.unpark>`; the kernel
then needs no per-primitive code for interrupts, expiry or diagnosis:

* :meth:`Primitive.admissible` — may a request be granted right now?
* :meth:`Primitive.grant` — admit queued threads while they are
  admissible, in lock-policy order;
* :meth:`Primitive.cancel` — end a parked thread's wait or acquire on an
  interrupt, a timeout, or a spurious wakeup;
* :meth:`Primitive.expirable` — may a timeout end this thread's park?
* :meth:`Primitive.waits_on` — the threads a blocked thread waits for
  (its successors in the wait-for graph).

:class:`~repro.vm.monitor.MonitorObject` implements the protocol next to
its entry and wait sets.  The three primitives here also carry their
syscall handlers, with ``java.util.concurrent`` semantics:

* :class:`SemaphoreObject` — ``Semaphore``: no ownership (any thread may
  release), interruptible acquire, ``tryAcquire(n, timeout)`` expiring on
  virtual time.
* :class:`RwLockObject` — ``ReentrantReadWriteLock``: reentrant per mode,
  write→read downgrade allowed (never blocks), read→write upgrade not
  supported (it blocks forever, visible to the deadlock analyses as a
  self-edge).  ``preference`` selects writer preference (a queued writer
  shuts off reader admission — the fair-ish default) or reader
  preference (readers barge whenever no writer is active, the
  §5.2.1-style writer-starvation configuration).
* :class:`BarrierObject` — ``CyclicBarrier``: generation counter, breaks
  on interrupt (``BrokenBarrierError`` for everyone else) and stays
  broken, as without ``reset()``.

What each primitive answers per operation is tabulated in
``docs/architecture.md`` ("The wait-queue core and the primitive
protocol").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar, Dict, List, Optional, Protocol

from .errors import BrokenBarrierError, IllegalMonitorStateError
from .events import EventKind, WakeReason
from .syscalls import BarrierAwait, RwAcquire, RwRelease, SemAcquire, SemRelease
from .thread import SimThread, ThreadState
from .waitq import WaitQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Kernel

__all__ = [
    "BarrierObject",
    "Primitive",
    "RW_PREFERENCES",
    "RwLockObject",
    "SemaphoreObject",
    "take_interrupt",
]

#: valid RwLockObject.preference values
RW_PREFERENCES = ("writer", "reader")

_WAITING = ThreadState.WAITING
_TIMEOUT = WakeReason.TIMEOUT
_SEM_REQUEST = EventKind.SEM_REQUEST
_SEM_ACQUIRE = EventKind.SEM_ACQUIRE
_SEM_RELEASE = EventKind.SEM_RELEASE
_RW_REQUEST = EventKind.RW_REQUEST
_RW_ACQUIRE = EventKind.RW_ACQUIRE
_RW_RELEASE = EventKind.RW_RELEASE
_RW_DOWNGRADE = EventKind.RW_DOWNGRADE
_BARRIER_AWAIT = EventKind.BARRIER_AWAIT
_BARRIER_TRIP = EventKind.BARRIER_TRIP
_BARRIER_RESUME = EventKind.BARRIER_RESUME
_BARRIER_BROKEN = EventKind.BARRIER_BROKEN
_WAIT_TIMEOUT = EventKind.WAIT_TIMEOUT


class Primitive(Protocol):
    """The contract between the kernel and every blocking primitive."""

    #: what diagnostics call this kind of primitive ("rw-lock", ...)
    KIND: ClassVar[str]
    #: unique name within the kernel (one name space for all primitives;
    #: the ``monitor`` field of their events)
    name: str

    def admissible(self, thread: Optional[str], request: Any) -> bool:
        """Whether ``thread``'s ``request`` could be granted against the
        current holders (grant loops pass ``None`` for ``thread``)."""

    def grant(self, kernel: "Kernel") -> None:
        """Admit queued threads while the lock policy's choice is
        admissible."""

    def cancel(
        self, kernel: "Kernel", thread: SimThread, reason: WakeReason, by: str
    ) -> None:
        """End parked ``thread``'s wait or acquire for ``reason``
        (interrupt, timeout, or spurious), re-granting whatever that
        frees."""

    def expirable(self, thread: SimThread) -> bool:
        """Whether a timeout may end parked ``thread``'s wait or acquire."""

    def waits_on(self, thread: SimThread) -> List[str]:
        """The threads blocked ``thread`` waits for (wait-for edges)."""


def take_interrupt(thread: SimThread, action: str) -> bool:
    """Consume a pending interrupt flag at an interruptible call: the call
    throws ``InterruptedError`` at once and clears the flag (Java).
    Returns whether it did."""
    if not thread.interrupted:
        return False
    thread.interrupted = False
    thread.throw_exc = InterruptedError(
        f"thread {thread.name!r} {action} with its interrupt flag set"
    )
    return True


@dataclass
class SemaphoreObject:
    """A counting semaphore (S1 request, S2 acquire, S3 release).

    Attributes:
        name: unique name within the kernel (shared namespace with
            monitors, rw-locks, and barriers).
        permits: permits currently available.
        queue: threads blocked in ``SemAcquire``, in arrival order; the
            permits each needs ride on the thread's ``blocked_arg``.
        holders: thread -> net permits acquired (for wait-for-graph
            edges and observability; not ownership — releases by
            non-holders are legal, as in ``java.util.concurrent``).
    """

    KIND: ClassVar[str] = "semaphore"

    name: str
    permits: int = 1
    queue: WaitQueue = field(default_factory=WaitQueue)
    holders: Dict[str, int] = field(default_factory=dict)

    def hold(self, thread: str, n: int) -> None:
        self.holders[thread] = self.holders.get(thread, 0) + n

    def unhold(self, thread: str, n: int) -> None:
        """Reduce ``thread``'s recorded holding by up to ``n`` permits
        (a release of permits the thread never acquired is legal and
        simply is not attributed)."""
        have = self.holders.get(thread, 0)
        left = have - n
        if left > 0:
            self.holders[thread] = left
        else:
            self.holders.pop(thread, None)

    # -- syscalls ----------------------------------------------------------

    def acquire(self, kernel: "Kernel", thread: SimThread, call: SemAcquire) -> None:
        name, n, timeout = thread.name, call.n, call.timeout
        if n < 1:
            thread.throw_exc = ValueError(
                f"thread {name!r} asked semaphore {self.name!r} for {n} permits"
            )
            return
        if timeout is not None and timeout < 0:
            thread.throw_exc = ValueError(
                f"negative acquire timeout {timeout!r} in thread {name!r}"
            )
            return
        comp, meth = thread.current_frame()
        kernel.emit(
            name,
            _SEM_REQUEST,
            monitor=self.name,
            component=comp,
            method=meth,
            n=n,
            **({"timeout": timeout} if timeout is not None else {}),
        )
        if take_interrupt(thread, f"called acquire() on {self.name!r}"):
            return
        if not self.queue and self.admissible(name, n):
            self.permits -= n
            self.hold(name, n)
            kernel.emit(
                name,
                _SEM_ACQUIRE,
                monitor=self.name,
                n=n,
                available=self.permits,
                blocked_for=0,
            )
            thread.send_value = True
            return
        # Contended (or the policy must arbitrate among queued acquirers).
        # A timed acquire is tryAcquire(n, timeout) on virtual time: it
        # resolves False at the deadline if the permits never came.
        self.queue.add(name)
        kernel.park(
            thread, self.name, arg=n,
            deadline=None if timeout is None else kernel.time + timeout,
        )
        self.grant(kernel)

    def release(self, kernel: "Kernel", thread: SimThread, call: SemRelease) -> None:
        n = call.n
        if n < 1:
            thread.throw_exc = ValueError(
                f"thread {thread.name!r} released {n} permits to semaphore "
                f"{self.name!r}"
            )
            return
        # No ownership requirement (j.u.c Semaphore.release()): any thread
        # may add permits — which is exactly why a *dropped* release
        # (lost-permit) has no local symptom at the dropping thread.
        self.permits += n
        self.unhold(thread.name, n)
        comp, meth = thread.current_frame()
        kernel.emit(
            thread.name,
            _SEM_RELEASE,
            monitor=self.name,
            component=comp,
            method=meth,
            n=n,
            available=self.permits,
        )
        self.grant(kernel)

    # -- the primitive protocol ---------------------------------------------

    def admissible(self, thread: Optional[str], request: Any) -> bool:
        return bool(self.permits >= request)

    def grant(self, kernel: "Kernel") -> None:
        """Grant permits to queued acquirers while they fit.  The lock
        policy selects each candidate; a selected candidate needing more
        permits than are available stops the loop (no barging past it)."""
        while self.queue and self.permits > 0:
            candidate = self.queue.peek_select(
                kernel.lock_policy, kernel.rng_for(kernel.lock_policy)
            )
            thread = kernel.threads[candidate]
            need = thread.blocked_arg
            if not self.admissible(candidate, need):
                return
            self.queue.remove(candidate)
            self.permits -= need
            self.hold(candidate, need)
            blocked_for = kernel.unpark(thread)
            thread.send_value = True
            kernel.emit(
                candidate,
                _SEM_ACQUIRE,
                monitor=self.name,
                n=need,
                available=self.permits,
                blocked_for=blocked_for,
            )

    def cancel(
        self, kernel: "Kernel", thread: SimThread, reason: WakeReason, by: str
    ) -> None:
        """An interrupted acquire throws ``InterruptedError``; an expired
        one resolves ``False``.  Either way the leaver may have been the
        head of the queue holding back smaller requests: re-grant."""
        self.queue.remove(thread.name)
        deadline = thread.deadline
        kernel.unpark(thread)
        if reason is _TIMEOUT:
            thread.send_value = False
            kernel.emit(
                thread.name,
                _WAIT_TIMEOUT,
                monitor=self.name,
                by=by,
                deadline=deadline,
                primitive="semaphore",
            )
        else:
            thread.throw_exc = InterruptedError(
                f"thread {thread.name!r} interrupted while acquiring semaphore "
                f"{self.name!r}"
            )
        self.grant(kernel)

    def expirable(self, thread: SimThread) -> bool:
        return thread.deadline is not None

    def waits_on(self, thread: SimThread) -> List[str]:
        """An acquirer waits on *every* permit holder."""
        return list(self.holders)


@dataclass
class RwLockObject:
    """A read-write lock with configurable reader/writer preference
    (R1 request, R2 acquire, R3 release, R4 downgrade).

    Attributes:
        name: unique name within the kernel.
        preference: ``"writer"`` (a queued writer blocks new reader
            admission) or ``"reader"`` (readers are admitted whenever no
            writer is active — writers can starve).
        readers: thread -> reentrant read-hold depth of active readers.
        writer: the active writer, or ``None``.
        writer_depth: reentrant write-hold depth of the writer.
        read_queue / write_queue: blocked acquirers per mode, in arrival
            order.
    """

    KIND: ClassVar[str] = "rw-lock"

    name: str
    preference: str = "writer"
    readers: Dict[str, int] = field(default_factory=dict)
    writer: Optional[str] = None
    writer_depth: int = 0
    read_queue: WaitQueue = field(default_factory=WaitQueue)
    write_queue: WaitQueue = field(default_factory=WaitQueue)

    # -- syscalls ----------------------------------------------------------

    def acquire(self, kernel: "Kernel", thread: SimThread, call: RwAcquire) -> None:
        name, mode = thread.name, call.mode
        if mode not in ("read", "write"):
            thread.throw_exc = ValueError(
                f"rw-lock mode must be 'read' or 'write', got {mode!r}"
            )
            return
        comp, meth = thread.current_frame()
        kernel.emit(
            name, _RW_REQUEST, monitor=self.name, component=comp, method=meth, mode=mode
        )
        if take_interrupt(thread, f"acquired rw-lock {self.name!r}"):
            return
        if mode == "read":
            if self.writer == name:
                # The j.u.c downgrade: a write holder may always take a
                # read hold; it never blocks (R4, not R1->R2).
                depth = self.readers[name] = self.readers.get(name, 0) + 1
                kernel.emit(name, _RW_DOWNGRADE, monitor=self.name, read_depth=depth)
                return
            if name in self.readers:
                self.readers[name] += 1
                kernel.emit(
                    name, _RW_ACQUIRE, monitor=self.name, mode="read", reentrant=True
                )
                return
            if not self.read_queue and self.admissible(name, "read"):
                self.readers[name] = 1
                kernel.emit(
                    name,
                    _RW_ACQUIRE,
                    monitor=self.name,
                    mode="read",
                    readers=len(self.readers),
                    blocked_for=0,
                )
                return
            queue = self.read_queue
        else:
            if self.writer == name:
                self.writer_depth += 1
                kernel.emit(
                    name, _RW_ACQUIRE, monitor=self.name, mode="write", reentrant=True
                )
                return
            if not self.write_queue and self.admissible(name, "write"):
                self.writer = name
                self.writer_depth = 1
                kernel.emit(
                    name, _RW_ACQUIRE, monitor=self.name, mode="write", blocked_for=0
                )
                return
            # A read holder requesting write lands here too: the j.u.c
            # read->write upgrade is unsupported and blocks forever on its
            # own read hold — a self-edge in the wait-for graph.
            queue = self.write_queue
        queue.add(name)
        kernel.park(thread, self.name, arg=mode)
        self.grant(kernel)

    def release(self, kernel: "Kernel", thread: SimThread, call: RwRelease) -> None:
        name = thread.name
        if self.writer == name:
            # Write holds unwind before read holds taken under them, so a
            # downgrade sequence (write, read, release, release) leaves
            # the read hold active after the first release — j.u.c order.
            self.writer_depth -= 1
            if self.writer_depth > 0:
                kernel.emit(
                    name, _RW_RELEASE, monitor=self.name, mode="write", reentrant=True
                )
                return
            self.writer = None
            comp, meth = thread.current_frame()
            kernel.emit(
                name,
                _RW_RELEASE,
                monitor=self.name,
                component=comp,
                method=meth,
                mode="write",
            )
        elif name in self.readers:
            self.readers[name] -= 1
            if self.readers[name] > 0:
                kernel.emit(
                    name, _RW_RELEASE, monitor=self.name, mode="read", reentrant=True
                )
                return
            del self.readers[name]
            comp, meth = thread.current_frame()
            kernel.emit(
                name,
                _RW_RELEASE,
                monitor=self.name,
                component=comp,
                method=meth,
                mode="read",
                readers=len(self.readers),
            )
        else:
            raise IllegalMonitorStateError(
                f"thread {name!r} released rw-lock {self.name!r} it does not hold"
            )
        self.grant(kernel)

    # -- the primitive protocol ---------------------------------------------

    def admissible(self, thread: Optional[str], request: Any) -> bool:
        """A writer needs the lock fully free.  A reader needs no active
        writer and — under writer preference — no queued writer either."""
        if self.writer is not None:
            return False
        if request == "write":
            return not self.readers
        return not (self.preference == "writer" and self.write_queue)

    def grant(self, kernel: "Kernel") -> None:
        """Admit queued acquirers according to the lock's preference.
        Loops until nobody else may proceed: one writer when the lock is
        fully free, else every admissible reader."""
        while True:
            if (
                self.write_queue
                and self.admissible(None, "write")
                and not (self.preference == "reader" and self.read_queue)
            ):
                chosen = self.write_queue.pop_select(
                    kernel.lock_policy, kernel.rng_for(kernel.lock_policy)
                )
                self.writer = chosen
                self.writer_depth = 1
                kernel.emit(
                    chosen,
                    _RW_ACQUIRE,
                    monitor=self.name,
                    mode="write",
                    blocked_for=kernel.unpark(kernel.threads[chosen]),
                )
            elif self.read_queue and self.admissible(None, "read"):
                chosen = self.read_queue.pop_select(
                    kernel.lock_policy, kernel.rng_for(kernel.lock_policy)
                )
                self.readers[chosen] = self.readers.get(chosen, 0) + 1
                kernel.emit(
                    chosen,
                    _RW_ACQUIRE,
                    monitor=self.name,
                    mode="read",
                    readers=len(self.readers),
                    blocked_for=kernel.unpark(kernel.threads[chosen]),
                )
            else:
                return

    def cancel(
        self, kernel: "Kernel", thread: SimThread, reason: WakeReason, by: str
    ) -> None:
        """An interrupted acquirer leaves its queue with
        ``InterruptedError``; a removed queued writer may re-admit the
        readers it held back under writer preference."""
        mode = thread.blocked_arg
        (self.write_queue if mode == "write" else self.read_queue).remove(thread.name)
        kernel.unpark(thread)
        thread.throw_exc = InterruptedError(
            f"thread {thread.name!r} interrupted while acquiring rw-lock "
            f"{self.name!r} for {mode}"
        )
        self.grant(kernel)

    def expirable(self, thread: SimThread) -> bool:
        return False

    def waits_on(self, thread: SimThread) -> List[str]:
        """An acquirer waits on every active reader and the writer."""
        held = list(self.readers)
        if self.writer is not None and self.writer not in self.readers:
            held.append(self.writer)
        return held


@dataclass
class BarrierObject:
    """A cyclic barrier (B1 await, B2 trip).

    Attributes:
        name: unique name within the kernel.
        parties: arrivals required to trip a generation.
        waiters: threads suspended at the barrier, in arrival order.
        arrival: thread -> 0-based arrival index within this generation
            (the value its ``BarrierAwait`` resolves to).
        generation: completed-generation counter; each trip increments.
        broken: a waiter was interrupted — every current and future
            awaiter receives ``BrokenBarrierError`` (no ``reset()``).
    """

    KIND: ClassVar[str] = "barrier"

    name: str
    parties: int = 2
    waiters: WaitQueue = field(default_factory=WaitQueue)
    arrival: Dict[str, int] = field(default_factory=dict)
    generation: int = 0
    broken: bool = False

    # -- syscalls ----------------------------------------------------------

    def arrive(self, kernel: "Kernel", thread: SimThread, call: BarrierAwait) -> None:
        name = thread.name
        comp, meth = thread.current_frame()
        if self.broken:
            kernel.emit(
                name,
                _BARRIER_AWAIT,
                monitor=self.name,
                component=comp,
                method=meth,
                broken=True,
            )
            thread.throw_exc = BrokenBarrierError(
                f"thread {name!r} arrived at broken barrier {self.name!r}"
            )
            return
        if take_interrupt(thread, f"called await() on {self.name!r}"):
            # await() with the interrupt status set throws immediately and
            # breaks the barrier for everyone already parked at it.
            self._break(kernel, by=name)
            return
        index = len(self.waiters)
        kernel.emit(
            name,
            _BARRIER_AWAIT,
            monitor=self.name,
            component=comp,
            method=meth,
            index=index,
            parties=self.parties,
            line=thread.yield_line(),
        )
        if self.admissible(name, None):
            self._trip(kernel, last=thread)
            return
        self.waiters.add(name)
        self.arrival[name] = index
        kernel.park(thread, self.name, _WAITING)

    def _leave(self, kernel: "Kernel", waiter: SimThread) -> int:
        """Take ``waiter`` off the barrier; returns its arrival index."""
        self.waiters.remove(waiter.name)
        kernel.unpark(waiter)
        return self.arrival.pop(waiter.name, 0)

    def _trip(self, kernel: "Kernel", last: SimThread) -> None:
        """The final party arrived: release every waiter (B2) and start the
        next generation."""
        generation = self.generation
        released = list(self.waiters)
        kernel.emit(
            last.name,
            _BARRIER_TRIP,
            monitor=self.name,
            generation=generation,
            parties=self.parties,
            released=released + [last.name],
        )
        for name in released:
            waiter = kernel.threads[name]
            index = waiter.send_value = self._leave(kernel, waiter)
            kernel.emit(
                name, _BARRIER_RESUME, monitor=self.name, generation=generation, index=index
            )
        last.send_value = self.parties - 1
        kernel.emit(
            last.name,
            _BARRIER_RESUME,
            monitor=self.name,
            generation=generation,
            index=self.parties - 1,
        )
        self.generation = generation + 1
        self.arrival.clear()

    def _break(self, kernel: "Kernel", by: str) -> None:
        """Break the barrier: every parked waiter resumes with
        ``BrokenBarrierError``, and the barrier rejects all future
        arrivals — j.u.c semantics without ``reset()``."""
        self.broken = True
        parked = list(self.waiters)
        kernel.emit(
            by,
            _BARRIER_BROKEN,
            monitor=self.name,
            generation=self.generation,
            waiters=parked,
        )
        for name in parked:
            waiter = kernel.threads[name]
            self._leave(kernel, waiter)
            waiter.throw_exc = BrokenBarrierError(
                f"barrier {self.name!r} broke while thread {name!r} awaited it"
            )

    # -- the primitive protocol ---------------------------------------------

    def admissible(self, thread: Optional[str], request: Any) -> bool:
        """An arrival passes without parking only as the last party."""
        return len(self.waiters) == self.parties - 1

    def grant(self, kernel: "Kernel") -> None:
        """Nothing to grant: only the last arrival releases the parties."""

    def cancel(
        self, kernel: "Kernel", thread: SimThread, reason: WakeReason, by: str
    ) -> None:
        """Interrupting a waiter *breaks* the barrier: the interrupted
        thread gets ``InterruptedError``, every other waiter gets
        ``BrokenBarrierError`` (j.u.c ``CyclicBarrier``)."""
        self._leave(kernel, thread)
        thread.throw_exc = InterruptedError(
            f"thread {thread.name!r} interrupted while awaiting barrier "
            f"{self.name!r}"
        )
        self._break(kernel, by=thread.name)

    def expirable(self, thread: SimThread) -> bool:
        return False

    def waits_on(self, thread: SimThread) -> List[str]:
        """A party waits on arrivals no current thread is committed to."""
        return []
