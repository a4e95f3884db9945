"""The monitor virtual machine kernel.

The kernel owns the monitors, the simulated threads, the abstract testing
clock, and the event trace.  Its run loop repeatedly asks the scheduler
for a runnable thread, resumes that thread's generator, and executes the
syscall the generator yields.  Every syscall is a scheduling point, so
the scheduler fully controls the interleaving — this is the determinism
the paper's testing method (and its ConAn lineage) requires, which real
JVM/CPython threads cannot provide.

Virtual time advances by one unit per syscall executed.  The abstract
clock (ConAn's ``await``/``tick``/``time``) is separate and only advances
on explicit :class:`~repro.vm.syscalls.Tick` syscalls (or automatically at
quiescence when ``auto_tick=True``).

Termination taxonomy of :meth:`Kernel.run` (see :class:`RunStatus`):

* ``COMPLETED`` — every thread terminated.
* ``DEADLOCK`` — quiescent with a cycle in the wait-for graph (threads
  blocked on locks held by each other): the classic FF-T2/FF-T4 outcome.
* ``STUCK`` — quiescent with live threads but no lock cycle: waiting
  threads nobody will notify (FF-T5), or clock waiters with no ticker.
* ``STEP_LIMIT`` — the step budget ran out (endless loop; FF-T4).
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .errors import (
    DeadlockError,
    IllegalMonitorStateError,
    StepLimitExceededError,
    ThreadCrashedError,
    UnknownSyscallError,
)
from .events import Event, EventKind, WakeReason
from .monitor import MonitorObject, SelectionPolicy
from .primitives import (
    RW_PREFERENCES,
    BarrierObject,
    Primitive,
    RwLockObject,
    SemaphoreObject,
    take_interrupt,
)
from .scheduler import FifoScheduler, Scheduler
from .syscalls import (
    Acquire,
    AwaitTime,
    BarrierAwait,
    CallBegin,
    CallEnd,
    GetTime,
    Interrupt,
    Notify,
    NotifyAll,
    Read,
    Release,
    RwAcquire,
    RwRelease,
    SemAcquire,
    SemRelease,
    Syscall,
    Tick,
    Wait,
    Write,
    Yield,
)
from .thread import SimThread, ThreadState
from .trace import Trace
from .waitq import find_cycle

__all__ = ["Kernel", "RunResult", "RunStatus", "current_kernel", "current_thread"]


# The executing kernel/thread, visible to instrumented component attribute
# access.  The VM is cooperatively single-threaded, so a module-level slot
# (not a threading.local) is correct and cheap.
_CURRENT: List[Tuple["Kernel", SimThread]] = []

# Thread states and event kinds bound to module names: the step path reads
# these, never ``ThreadState.X``/``EventKind.X`` (a Python-level enum class
# lookup before 3.12).
_NEW = ThreadState.NEW
_RUNNABLE = ThreadState.RUNNABLE
_BLOCKED = ThreadState.BLOCKED
_WAITING = ThreadState.WAITING
_CLOCK_WAIT = ThreadState.CLOCK_WAIT
_TERMINATED = ThreadState.TERMINATED
_CRASHED = ThreadState.CRASHED

_THREAD_START = EventKind.THREAD_START
_THREAD_END = EventKind.THREAD_END
_THREAD_CRASH = EventKind.THREAD_CRASH
_MONITOR_REQUEST = EventKind.MONITOR_REQUEST
_MONITOR_ACQUIRE = EventKind.MONITOR_ACQUIRE
_MONITOR_WAIT = EventKind.MONITOR_WAIT
_MONITOR_RELEASE = EventKind.MONITOR_RELEASE
_MONITOR_NOTIFIED = EventKind.MONITOR_NOTIFIED
_NOTIFY = EventKind.NOTIFY
_NOTIFY_ALL = EventKind.NOTIFY_ALL
_SPURIOUS_WAKEUP = EventKind.SPURIOUS_WAKEUP
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
_BARRIER_TRIP = EventKind.BARRIER_TRIP
_BARRIER_RESUME = EventKind.BARRIER_RESUME
_BARRIER_BROKEN = EventKind.BARRIER_BROKEN
_CALL_BEGIN = EventKind.CALL_BEGIN
_CALL_END = EventKind.CALL_END
_READ = EventKind.READ
_WRITE = EventKind.WRITE
_CLOCK_AWAIT = EventKind.CLOCK_AWAIT
_CLOCK_RESUME = EventKind.CLOCK_RESUME
_CLOCK_TICK = EventKind.CLOCK_TICK
_YIELD = EventKind.YIELD

_RANDOM_POLICY = SelectionPolicy.RANDOM


def _is_blocked(thread: SimThread) -> bool:
    return thread.state is _BLOCKED


# Kernel.emit builds each Event as one tuple: Event.__new__ would add a
# Python-level call per event.
_new_tuple = tuple.__new__


def _vm_name_of(ref: Any) -> Any:
    """``ref._vm_name``, or None."""
    return getattr(ref, "_vm_name", None)


def current_kernel() -> Optional["Kernel"]:
    """The kernel currently executing a thread, if any."""
    return _CURRENT[-1][0] if _CURRENT else None


def current_thread() -> Optional[SimThread]:
    """The simulated thread currently executing, if any."""
    return _CURRENT[-1][1] if _CURRENT else None


class RunStatus(enum.Enum):
    COMPLETED = "completed"
    DEADLOCK = "deadlock"
    STUCK = "stuck"
    STEP_LIMIT = "step_limit"
    #: never produced by Kernel.run itself — assigned by wall-clock-bounded
    #: runners (repro.engine workers) when a run exceeds its time budget.
    TIMEOUT = "timeout"


@dataclass
class RunResult:
    """Outcome of a kernel run.

    Attributes:
        status: how the run ended.
        trace: the full event trace.
        steps: syscalls executed.
        thread_results: generator return value per completed thread.
        thread_states: final state name per thread.
        deadlock_cycle: the wait-for cycle when status is DEADLOCK.
        stuck_threads: live thread names when status is STUCK/DEADLOCK.
        crashed: names of threads that raised, with their exceptions.
        abort_reason: why the run was ended early via
            :meth:`Kernel.request_abort`, or None for a natural ending.
    """

    status: RunStatus
    trace: Trace
    steps: int
    thread_results: Dict[str, Any] = field(default_factory=dict)
    thread_states: Dict[str, str] = field(default_factory=dict)
    deadlock_cycle: List[str] = field(default_factory=list)
    stuck_threads: List[str] = field(default_factory=list)
    crashed: Dict[str, BaseException] = field(default_factory=dict)
    schedule_log: List[str] = field(default_factory=list)
    abort_reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status is RunStatus.COMPLETED and not self.crashed

    def raise_on_failure(self) -> "RunResult":
        """Raise the matching VM error unless the run completed cleanly."""
        if self.crashed:
            name, exc = next(iter(self.crashed.items()))
            raise ThreadCrashedError(name, str(exc)) from exc
        if self.status is RunStatus.DEADLOCK:
            raise DeadlockError(
                f"deadlock among threads {self.deadlock_cycle}", self.deadlock_cycle
            )
        if self.status is RunStatus.STUCK:
            from .errors import StuckThreadsError

            raise StuckThreadsError(
                f"threads stuck at quiescence: {self.stuck_threads}",
                self.stuck_threads,
            )
        if self.status is RunStatus.STEP_LIMIT:
            raise StepLimitExceededError(f"step limit reached after {self.steps} steps")
        return self


class Kernel:
    """The monitor VM.

    Args:
        scheduler: source of all thread-interleaving decisions.
        lock_policy: how a released lock is granted to entry-set threads
            (FIFO models a fair JVM; LIFO/ADVERSARIAL model unfair ones —
            the FF-T2 fairness discussion).
        notify_policy: how ``notify`` selects a waiter (Section 3.2's
            "arbitrarily select"; FF-T5 unfairness).
        seed: RNG seed for RANDOM policies and fault injection.  The
            environment RNG (:attr:`rng`) is seeded on its first draw, so a
            kernel that never draws (FIFO policies, zero fault rates)
            never pays for seeding it.
        max_steps: syscall budget before the run aborts with STEP_LIMIT.
        auto_tick: at quiescence with clock waiters, advance the abstract
            clock to the earliest awaited time instead of declaring STUCK.
        spurious_wakeup_rate: probability (per wait-state scheduling
            opportunity) that a waiting thread wakes without notification —
            models the JVM's permitted spurious wakeups; exposes the
            if-instead-of-while mutants.
        lost_notify_rate: probability that a notify/notifyAll wakes nobody
            (fault injection standing in for a buggy JVM or a lost-wakeup
            environment); used to measure detector robustness — a correct
            component under injected signal loss exhibits FF-T5 symptoms
            that the completion-time oracle must still catch.
        record_accesses: emit READ/WRITE events for instrumented component
            fields (required by the race detectors; ~25% of kernel time on
            access-heavy workloads — disable for pure throughput runs or
            when only the monitor protocol matters).
        trace_mode: ``"full"`` retains every event in ``self.trace`` (the
            post-hoc analysis path); ``"none"`` retains nothing — events
            are still delivered to subscribed sinks, so a streaming
            detector pipeline sees the whole execution while memory stays
            at O(detector state) instead of O(events).  Validated on every
            assignment, not only here.
        sinks: event subscribers called synchronously with every emitted
            event, in subscription order (see :meth:`subscribe`).
    """

    #: Valid values of ``trace_mode``.
    TRACE_MODES = ("full", "none")

    def __init__(
        self,
        scheduler: Optional[Scheduler] = None,
        lock_policy: SelectionPolicy = SelectionPolicy.FIFO,
        notify_policy: SelectionPolicy = SelectionPolicy.FIFO,
        seed: Optional[int] = None,
        max_steps: int = 100_000,
        auto_tick: bool = False,
        spurious_wakeup_rate: float = 0.0,
        lost_notify_rate: float = 0.0,
        record_accesses: bool = True,
        trace_mode: str = "full",
        sinks: Optional[Sequence[Callable[[Event], None]]] = None,
    ) -> None:
        self.trace = Trace()
        self.trace_mode = trace_mode
        self.scheduler = scheduler or FifoScheduler()
        self.lock_policy = lock_policy
        self.notify_policy = notify_policy
        self._rng_seed = seed
        self._rng: Optional[random.Random] = None
        self.max_steps = max_steps
        self.auto_tick = auto_tick
        self.spurious_wakeup_rate = spurious_wakeup_rate
        self.lost_notify_rate = lost_notify_rate
        self.record_accesses = record_accesses
        self._sinks: List[Callable[[Event], None]] = list(sinks or [])
        #: kind-filtered subscribers: EventKind -> callbacks.  Empty for
        #: most kernels; emit pays one truth test when unused.
        self._kind_sinks: Dict[EventKind, Tuple[Callable[[Event], None], ...]] = {}
        #: True while ``_kind_sinks`` is a table adopted by
        #: :meth:`install_routes` (shared, so copied before any change)
        self._routes_shared = False
        #: set via :meth:`request_abort`; a non-None value ends the run
        #: loop at the next step boundary (first reason wins).
        self.abort_reason: Optional[str] = None
        #: optional deterministic fault injector (see :mod:`repro.faults`):
        #: an object with ``on_step(kernel)``, consulted at the top of
        #: every :meth:`step` — the same point as the rate-based spurious
        #: draw, but consuming no kernel RNG.
        self.fault_injector: Optional[Any] = None

        self.time = 0
        self.clock_time = 0
        self.steps = 0
        #: thread picked at each step, in order (enables replay of a
        #: saved run via NameReplayScheduler; embedded in saved traces).
        self.schedule_log: List[str] = []
        #: index the scheduler chose at each step, in order: the run's
        #: decision sequence, which ReplayScheduler replays exactly.
        self.choice_log: List[int] = []
        #: thread that ran the previous step (context-switch accounting).
        self._last_scheduled: Optional[str] = None
        self._seq = 0
        self.threads: Dict[str, SimThread] = {}
        #: (runnable threads, their names) in spawn order, kept between
        #: steps; None once a thread enters or leaves the runnable set
        self._ready: Optional[Tuple[List[SimThread], List[str]]] = None
        #: every primitive — monitors, semaphores, rw-locks, barriers — in
        #: one name space (the ``monitor`` field of their events).
        self.primitives: Dict[str, Primitive] = {}
        #: the monitors among them.
        self.monitors: Dict[str, MonitorObject] = {}
        self.components: Dict[str, Any] = {}
        #: id of a registered component -> the name its events carry
        self._component_names: Dict[int, str] = {}
        self._clock_waiters: List[SimThread] = []
        #: deadline index: never later than the earliest armed deadline
        #: of a timed park, so :meth:`step` scans for expiries only once
        #: it is due.  Cleared deadlines leave it stale-low, which costs
        #: one empty scan; every scan recomputes it exactly.
        self._next_deadline: float = math.inf
        self._ran = False

    @property
    def trace_mode(self) -> str:
        """``"full"`` or ``"none"`` (see the class docstring)."""
        return self._trace_mode

    @trace_mode.setter
    def trace_mode(self, mode: str) -> None:
        if mode not in self.TRACE_MODES:
            raise ValueError(
                f"trace_mode must be one of {self.TRACE_MODES}, got {mode!r}"
            )
        self._trace_mode = mode
        #: what :meth:`emit` hands each event to for retention: the
        #: trace's own list append, or None when nothing is retained
        self._record: Optional[Callable[[Event], None]] = (
            self.trace.recorder() if mode == "full" else None
        )

    @property
    def rng(self) -> random.Random:
        """The environment RNG: RANDOM lock/notify policies, rate-driven
        spurious wakeups and lost notifies.  Built from ``seed`` on first
        use, which draws exactly what a construction-time RNG would; an
        assigned RNG replaces it."""
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self._rng_seed)
        return rng

    @rng.setter
    def rng(self, rng: random.Random) -> None:
        self._rng = rng

    def rng_for(self, policy: SelectionPolicy) -> Optional[random.Random]:
        """The RNG a selection under ``policy`` draws from: :attr:`rng`
        for RANDOM, None for the deterministic policies (which never
        draw, so they never seed it)."""
        return self.rng if policy is _RANDOM_POLICY else None

    # -- registration ----------------------------------------------------------

    def register(self, component: Any, name: Optional[str] = None) -> Any:
        """Register a component (anything with a ``_vm_attach`` hook or a
        plain object) and create its monitor.  Returns the component for
        chaining."""
        base = name or type(component).__name__
        unique = base
        counter = 1
        while unique in self.components:
            counter += 1
            unique = f"{base}#{counter}"
        self.components[unique] = component
        self.monitors[unique] = self.primitives[unique] = MonitorObject(unique)
        attach = getattr(component, "_vm_attach", None)
        if attach is not None:
            attach(self, unique)
        self._component_names[id(component)] = self._component_name(component)
        return component

    def _add(self, primitive: Any) -> Any:
        """Register a new primitive in the one name space (rejecting a
        name any primitive already uses); returns it."""
        existing = self.primitives.get(primitive.name)
        if existing is not None:
            raise ValueError(f"{existing.KIND} {primitive.name!r} already exists")
        self.primitives[primitive.name] = primitive
        return primitive

    def new_monitor(self, name: str) -> MonitorObject:
        """Create a bare named monitor (for lock-only examples without a
        component, e.g. the nested-lock demo of Section 3.1)."""
        monitor = self.monitors[name] = self._add(MonitorObject(name))
        return monitor

    def new_semaphore(self, name: str, permits: int = 1) -> SemaphoreObject:
        """Create a counting semaphore with ``permits`` initial permits."""
        if permits < 0:
            raise ValueError(f"semaphore {name!r} needs permits >= 0, got {permits}")
        return self._add(SemaphoreObject(name, permits))

    def new_rwlock(self, name: str, preference: str = "writer") -> RwLockObject:
        """Create a read-write lock.  ``preference`` is ``"writer"`` (a
        queued writer shuts off reader admission) or ``"reader"`` (readers
        barge whenever no writer is active — writers can starve)."""
        if preference not in RW_PREFERENCES:
            raise ValueError(
                f"rw-lock preference must be one of {RW_PREFERENCES}, "
                f"got {preference!r}"
            )
        return self._add(RwLockObject(name, preference))

    def new_barrier(self, name: str, parties: int) -> BarrierObject:
        """Create a cyclic barrier tripping every ``parties`` arrivals."""
        if parties < 1:
            raise ValueError(f"barrier {name!r} needs parties >= 1, got {parties}")
        return self._add(BarrierObject(name, parties))

    def spawn(
        self,
        body: Callable[..., Generator[Any, Any, Any]],
        *args: Any,
        name: Optional[str] = None,
        **kwargs: Any,
    ) -> SimThread:
        """Create a simulated thread from a generator function."""
        base = name or getattr(body, "__name__", "thread")
        unique = base
        counter = 1
        while unique in self.threads:
            counter += 1
            unique = f"{base}-{counter}"
        generator = body(*args, **kwargs)
        if not hasattr(generator, "send"):
            raise TypeError(
                f"thread body {base!r} must be a generator function "
                f"(got {type(generator).__name__}); did you forget to yield?"
            )
        thread = SimThread(name=unique, body=generator)
        self.threads[unique] = thread
        self._ready = None
        return thread

    # -- monitor-name resolution -------------------------------------------------

    def _monitor_name(self, ref: Any, thread: SimThread) -> str:
        """Resolve a syscall's monitor reference to a monitor name."""
        if ref is None:
            innermost = thread.innermost_monitor()
            if innermost is None:
                raise IllegalMonitorStateError(
                    f"thread {thread.name!r} used a bare wait/notify while "
                    f"holding no monitor"
                )
            return innermost
        if isinstance(ref, str):
            if ref not in self.monitors:
                raise UnknownSyscallError(f"unknown monitor {ref!r}")
            return ref
        if isinstance(ref, MonitorObject):
            return ref.name
        vm_name = _vm_name_of(ref)
        if vm_name is not None:
            return vm_name
        raise UnknownSyscallError(f"cannot resolve monitor reference {ref!r}")

    def _resolve(self, ref: Any, cls: Any) -> Any:
        """Resolve a syscall's primitive reference (name string, the
        primitive object, or a component exposing ``_vm_name``) to the
        registered primitive, which must be a ``cls``."""
        if isinstance(ref, cls) and self.primitives.get(ref.name) is ref:
            return ref
        vm_name = None if isinstance(ref, str) else getattr(ref, "_vm_name", None)
        if isinstance(ref, str):
            name = ref
        elif isinstance(vm_name, str):
            name = vm_name
        else:
            name = getattr(ref, "name", None)
        primitive = self.primitives.get(name) if isinstance(name, str) else None
        if isinstance(primitive, cls):
            return primitive
        if isinstance(ref, str):
            raise UnknownSyscallError(f"unknown {cls.KIND} {ref!r}")
        if isinstance(vm_name, str):
            raise UnknownSyscallError(
                f"component {vm_name!r} is not attached to a {cls.KIND}"
            )
        raise UnknownSyscallError(f"cannot resolve {cls.KIND} reference {ref!r}")

    def _component_name(self, ref: Any) -> str:
        if isinstance(ref, str):
            return ref
        vm_name = _vm_name_of(ref)
        if vm_name is not None:
            return vm_name
        return type(ref).__name__

    # -- event bus ----------------------------------------------------------------

    def subscribe(
        self,
        sink: Callable[[Event], None],
        kinds: Optional[Iterable[EventKind]] = None,
    ) -> None:
        """Add an event sink called synchronously with every emitted event.

        Sinks see events in emission order regardless of ``trace_mode``, so
        a streaming detector attached here observes exactly the sequence a
        batch detector would read back from a full trace.

        ``kinds`` restricts delivery to the given event kinds, with the
        filtering done inside the emit loop — one dict lookup per event
        instead of a Python call into a subscriber that would discard it.
        The lookup runs entirely in C: :class:`EventKind` members hash by
        identity, so no Python-level ``__hash__`` is called per event.
        Unfiltered subscribers always run first, in subscription order;
        kind-filtered subscribers follow, in subscription order per kind.
        A :class:`~repro.detect.online.DetectorPipeline` attaches as a
        kind-filtered routing table (:meth:`install_routes`), so it runs
        after any unfiltered sink.
        """
        if kinds is None:
            self._sinks.append(sink)
            return
        routes: Dict[EventKind, Tuple[Callable[[Event], None], ...]] = {}
        for kind in kinds:
            routes[kind] = routes.get(kind, ()) + (sink,)
        self._add_routes(routes)

    def install_routes(
        self, routes: Dict[EventKind, Tuple[Callable[[Event], None], ...]]
    ) -> None:
        """Add a prebuilt kind-filtered routing table (EventKind -> sinks
        in delivery order): the same deliveries as subscribing each sink
        to its kinds in table order, in one call.

        A kernel with no kind-filtered sinks yet adopts ``routes`` itself,
        without copying, so one table built once serves every kernel of a
        :class:`~repro.run.executor.RunExecutor`; a later
        :meth:`subscribe` or install copies it first, never changing the
        shared table.
        """
        if self._kind_sinks:
            self._add_routes(routes)
        else:
            self._kind_sinks = routes
            self._routes_shared = True

    def _add_routes(
        self, routes: Dict[EventKind, Tuple[Callable[[Event], None], ...]]
    ) -> None:
        if self._routes_shared:
            self._kind_sinks = dict(self._kind_sinks)
            self._routes_shared = False
        kind_sinks = self._kind_sinks
        for kind, sinks in routes.items():
            kind_sinks[kind] = kind_sinks.get(kind, ()) + sinks

    def release(self) -> None:
        """Let a finished run be freed by reference counting.

        Drops the event subscriptions and detaches every registered
        component (``_vm_detach`` hook) from this kernel, which breaks
        the reference cycles a run builds: component to kernel and back
        through ``components``, and through each thread's generator, and
        kernel to subscriber and back.  The run's results, counters and
        thread table stay readable; the kernel must not run again.
        """
        self._sinks = []
        self._kind_sinks = {}
        self._routes_shared = False
        for component in self.components.values():
            detach = getattr(component, "_vm_detach", None)
            if detach is not None:
                detach(self)

    @property
    def events_emitted(self) -> int:
        """Total events emitted so far, regardless of trace retention.

        This is the native event counter (the next event's ``seq``);
        observers read it instead of counting events themselves.
        """
        return self._seq

    def request_abort(self, reason: str) -> None:
        """Ask the run loop to stop at the next step boundary.

        Used by online detectors that have already proven a permanent
        failure (e.g. a wait-for cycle among BLOCKED threads): the usual
        quiescence diagnosis still runs, so the result status is the same
        as if the run had burned steps to reach quiescence naturally.
        The first reason wins; later calls are ignored.
        """
        if self.abort_reason is None:
            self.abort_reason = reason

    # -- event emission -----------------------------------------------------------

    def emit(
        self,
        thread: str,
        kind: EventKind,
        monitor: Optional[str] = None,
        component: Optional[str] = None,
        method: Optional[str] = None,
        **detail: Any,
    ) -> Event:
        event = _new_tuple(
            Event,
            (self._seq, self.time, thread, kind, monitor, component, method, detail),
        )
        self._seq += 1
        record = self._record
        if record is not None:
            record(event)
        for sink in self._sinks:
            sink(event)
        if self._kind_sinks:
            for sink in self._kind_sinks.get(kind, ()):
                sink(event)
        return event

    def record_access(self, component: Any, fieldname: str, is_write: bool) -> None:
        """Record a shared-field access by the currently executing thread.

        Called from a component's ``__setattr__`` (writes) and its field
        descriptors (reads); a no-op outside VM execution (e.g. during
        ``__init__``) and when access recording is disabled.
        """
        if not self.record_accesses or not _CURRENT:
            return
        kernel, thread = _CURRENT[-1]
        if kernel is not self:
            return
        frames = thread.call_stack  # the innermost frame's method, if any
        self.emit(
            thread.name,
            _WRITE if is_write else _READ,
            None,
            self._component_names.get(id(component))
            or self._component_name(component),
            frames[-1][1] if frames else None,
            field=fieldname,
        )

    # -- the wait-queue core: parking threads in primitives ------------------------

    def park(
        self,
        thread: SimThread,
        on: str,
        state: ThreadState = _BLOCKED,
        arg: Any = None,
        deadline: Optional[int] = None,
    ) -> None:
        """Suspend ``thread`` in primitive ``on`` (the primitive has
        already queued it): BLOCKED acquiring it, with request ``arg``, or
        WAITING in it.  A ``deadline`` arms the expiry scan."""
        if state is _BLOCKED:
            thread.blocked_on = on
            thread.blocked_arg = arg
            thread.blocked_since = self.time
        else:
            thread.waiting_on = on
            thread.waiting_since = self.time
            thread.waits_entered += 1
        thread.state = state
        thread.deadline = deadline
        self._ready = None
        if deadline is not None and deadline < self._next_deadline:
            self._next_deadline = deadline

    def unpark(self, thread: SimThread) -> int:
        """Make a parked ``thread`` runnable (its primitive has already
        dequeued it): close its blocked or waiting interval and clear the
        park.  Returns the ticks spent parked."""
        if thread.state is _BLOCKED:
            since = thread.blocked_since
            parked = self.time - since if since is not None else 0
            thread.blocked_ticks += parked
            thread.blocked_since = thread.blocked_on = thread.blocked_arg = None
        else:
            since = thread.waiting_since
            parked = self.time - since if since is not None else 0
            thread.waiting_ticks += parked
            thread.waiting_since = thread.waiting_on = None
        thread.deadline = None
        thread.state = _RUNNABLE
        self._ready = None
        return parked

    def primitive_of(self, thread: SimThread) -> Optional[Primitive]:
        """The primitive ``thread`` is parked in, or None."""
        name = thread.blocked_on or thread.waiting_on
        return self.primitives[name] if name is not None else None

    # -- monitors ---------------------------------------------------------------------

    def _release_fully(self, thread: SimThread, monitor: MonitorObject) -> int:
        """Release every hold ``thread`` has on ``monitor`` (wait semantics).
        Returns the released depth."""
        depth = thread.hold_depth(monitor.name)
        for _ in range(depth):
            thread.pop_hold(monitor.name)
        monitor.free(self.time)
        return depth

    # -- syscall handlers --------------------------------------------------------------
    #
    # A handler leaves ``thread.send_value`` alone unless the syscall
    # returns something: :meth:`step` has already reset it to None.

    def _sys_acquire(self, thread: SimThread, call: Acquire) -> None:
        name = self._monitor_name(call.monitor, thread)
        monitor = self.monitors[name]
        self.emit(thread.name, _MONITOR_REQUEST, monitor=name)
        # The requester counts in the entry-set peak until it holds the
        # lock, on each of the three paths below.
        if monitor.owner == thread.name:
            # Reentrant acquire: no contention, immediately deeper hold.
            if len(monitor.entry_set) >= monitor.entry_peak:
                monitor.entry_peak = len(monitor.entry_set) + 1
            monitor.entry_count += 1
            thread.push_hold(name)
            self.emit(thread.name, _MONITOR_ACQUIRE, monitor=name, reentrant=True)
            return
        if monitor.owner is None and not monitor.entry_set:
            if not monitor.entry_peak:
                monitor.entry_peak = 1
            monitor.acquire_by(thread.name, 1, self.time)
            thread.push_hold(name)
            self.emit(thread.name, _MONITOR_ACQUIRE, monitor=name)
            return
        # Contended (or the policy must arbitrate among queued threads).
        requesting = monitor.entry_set.add(thread.name)
        if requesting > monitor.entry_peak:
            monitor.entry_peak = requesting
        self.park(thread, name)
        monitor.grant(self)

    def _sys_release(self, thread: SimThread, call: Release) -> None:
        name = self._monitor_name(call.monitor, thread)
        monitor = self.monitors[name]
        if monitor.owner != thread.name:
            raise IllegalMonitorStateError(
                f"thread {thread.name!r} released monitor {name!r} it does not own"
            )
        monitor.entry_count -= 1
        thread.pop_hold(name)
        if monitor.entry_count == 0:
            monitor.free(self.time)
            self.emit(thread.name, _MONITOR_RELEASE, monitor=name)
            monitor.grant(self)
        else:
            self.emit(thread.name, _MONITOR_RELEASE, monitor=name, reentrant=True)

    def _sys_wait(self, thread: SimThread, call: Wait) -> None:
        name = self._monitor_name(call.monitor, thread)
        monitor = self.monitors[name]
        if monitor.owner != thread.name:
            raise IllegalMonitorStateError(
                f"thread {thread.name!r} called wait() on monitor {name!r} "
                f"without owning it"
            )
        timeout = call.timeout
        if timeout is not None and timeout < 0:
            thread.throw_exc = ValueError(
                f"negative wait timeout {timeout!r} in thread {thread.name!r}"
            )
            return
        # Java: wait() with the interrupt status set throws immediately,
        # clears the status, and never releases the lock.
        if take_interrupt(thread, f"called wait() on {name!r}"):
            return
        depth = self._release_fully(thread, monitor)
        thread.saved_entry_count = depth
        waiting = monitor.wait_set.add(thread.name)
        if waiting > monitor.wait_peak:
            monitor.wait_peak = waiting
        # Java's wait(0) waits forever; only positive timeouts are timed.
        self.park(
            thread, name, _WAITING, deadline=self.time + timeout if timeout else None
        )
        comp, meth = thread.current_frame()
        self.emit(
            thread.name,
            _MONITOR_WAIT,
            monitor=name,
            component=comp,
            method=meth,
            depth=depth,
            line=thread.yield_line(),
            **({"timeout": timeout} if timeout else {}),
        )
        monitor.grant(self)

    def _sys_notify(
        self, thread: SimThread, call: Notify | NotifyAll, all_waiters: bool = False
    ) -> None:
        name = self._monitor_name(call.monitor, thread)
        monitor = self.monitors[name]
        if monitor.owner != thread.name:
            raise IllegalMonitorStateError(
                f"thread {thread.name!r} called notify on monitor {name!r} "
                f"without owning it"
            )
        injected_loss = (
            self.lost_notify_rate > 0.0
            and monitor.wait_set
            and self.rng.random() < self.lost_notify_rate
        )
        woken: List[str] = []
        if not injected_loss:
            if all_waiters:
                # notifyAll wakes every waiter; order in the entry set
                # follows the notify policy applied repeatedly.
                rng = self.rng_for(self.notify_policy)
                while monitor.wait_set:
                    waiter = monitor.select_waiter(self.notify_policy, rng)
                    woken.append(waiter)
            elif monitor.wait_set:
                woken.append(
                    monitor.select_waiter(
                        self.notify_policy, self.rng_for(self.notify_policy)
                    )
                )
        if not woken:
            monitor.lost_notifies += 1
        comp, meth = thread.current_frame()
        self.emit(
            thread.name,
            _NOTIFY_ALL if all_waiters else _NOTIFY,
            monitor=name,
            component=comp,
            method=meth,
            woken=list(woken),
            line=thread.yield_line(),
            **({"injected_loss": True} if injected_loss else {}),
        )
        reason = WakeReason.NOTIFY_ALL if all_waiters else WakeReason.NOTIFY
        for waiter in woken:
            monitor.wake(self, waiter, thread.name, reason)

    def _sys_tick(self, thread: SimThread, call: Tick) -> None:
        self._do_tick(by=thread.name)

    def _do_tick(self, by: str) -> None:
        self.clock_time += 1
        resumed: List[SimThread] = []
        still_waiting: List[SimThread] = []
        for t in self._clock_waiters:
            if (t.await_target or 0) <= self.clock_time:
                resumed.append(t)
            else:
                still_waiting.append(t)
        self._clock_waiters = still_waiting
        if resumed:
            self._ready = None
        self.emit(
            by,
            _CLOCK_TICK,
            now=self.clock_time,
            resumed=[t.name for t in resumed],
        )
        for waiter in resumed:
            waiter.await_target = None
            waiter.state = _RUNNABLE
            waiter.send_value = None
            self.emit(waiter.name, _CLOCK_RESUME, now=self.clock_time)

    def _sys_await(self, thread: SimThread, call: AwaitTime) -> None:
        if self.clock_time >= call.target:
            return
        thread.await_target = call.target
        thread.state = _CLOCK_WAIT
        self._ready = None
        self._clock_waiters.append(thread)
        self.emit(thread.name, _CLOCK_AWAIT, target=call.target)

    def _sys_call_begin(self, thread: SimThread, call: CallBegin) -> None:
        ref = call.component
        comp = self._component_names.get(id(ref)) or self._component_name(ref)
        thread.call_stack.append((comp, call.method))
        self.emit(thread.name, _CALL_BEGIN, None, comp, call.method)

    def _sys_call_end(self, thread: SimThread, call: CallEnd) -> None:
        ref = call.component
        comp = self._component_names.get(id(ref)) or self._component_name(ref)
        stack = thread.call_stack
        if stack and stack[-1] == (comp, call.method):
            stack.pop()
        if call.interrupted:
            self.emit(
                thread.name, _CALL_END, None, comp, call.method,
                result=call.result, interrupted=True,
            )
        else:
            self.emit(
                thread.name, _CALL_END, None, comp, call.method, result=call.result
            )

    def _sys_access(
        self, thread: SimThread, call: Read | Write, kind: EventKind = EventKind.READ
    ) -> None:
        ref = call.component
        self.emit(
            thread.name,
            kind,
            None,
            self._component_names.get(id(ref)) or self._component_name(ref),
            thread.current_frame()[1],
            field=call.field,
        )

    def _sys_interrupt(self, thread: SimThread, call: Interrupt) -> None:
        self.interrupt(call.thread, by=thread.name)

    def _sys_get_time(self, thread: SimThread, call: GetTime) -> None:
        thread.send_value = self.clock_time

    def _sys_yield(self, thread: SimThread, call: Yield) -> None:
        self.emit(thread.name, _YIELD)

    # -- environment faults: spurious wakeups, interrupts, timeouts ---------------------

    def spurious_wake(self, monitor_name: str, waiter_name: str) -> None:
        """Spuriously wake ``waiter_name`` from ``monitor_name``'s wait set
        — the JVM's documented liberty, as one deterministic effect.

        Both injection paths (the rate-based draw and a
        :class:`~repro.faults.FaultInjector` rule) route through this one
        method, so they emit identical event sequences for the same wake.
        """
        monitor = self.monitors.get(monitor_name)
        if monitor is None or waiter_name not in monitor.wait_set:
            raise UnknownSyscallError(
                f"cannot spuriously wake {waiter_name!r}: not waiting on "
                f"monitor {monitor_name!r}"
            )
        monitor.cancel(self, self.threads[waiter_name], WakeReason.SPURIOUS, "<jvm>")

    def _maybe_spurious_wakeup(self) -> None:
        """With the configured probability, wake one random waiting thread
        without any notify.  :meth:`step` calls it only for a positive
        rate, so a rate of zero draws nothing from the kernel RNG."""
        if self.rng.random() >= self.spurious_wakeup_rate:
            return
        candidates = [
            (m, w)
            for m in self.monitors.values()
            for w in m.wait_set
        ]
        if not candidates:
            return
        monitor, waiter = candidates[self.rng.randrange(len(candidates))]
        self.spurious_wake(monitor.name, waiter)

    def interrupt(self, name: str, by: str = "<env>") -> None:
        """Interrupt thread ``name`` (``Thread.interrupt()``), JVM-style.

        * Parked in a primitive (WAITING or BLOCKED): the primitive cancels
          the park (:meth:`Primitive.cancel <repro.vm.primitives.Primitive.cancel>`).
          A monitor waiter is woken with ``reason="interrupt"`` and raises
          ``InterruptedError`` once it has reacquired the monitor, as does
          a thread reacquiring after a wake; an acquirer leaves its queue
          and raises ``InterruptedError`` at the acquire point; a barrier
          party breaks the barrier.
        * Runnable (or clock-waiting): the interrupt flag is set; the next
          interruptible call raises immediately.
        * Terminated/crashed: no effect (flag set, never observed).
        """
        if name not in self.threads:
            raise UnknownSyscallError(f"cannot interrupt unknown thread {name!r}")
        thread = self.threads[name]
        self.emit(
            name, _INTERRUPT, by=by, thread_state=thread.state.value
        )
        primitive = self.primitive_of(thread)
        if primitive is None:
            thread.interrupted = True
        else:
            primitive.cancel(self, thread, WakeReason.INTERRUPT, by)

    def expire_wait(self, name: str, by: str = "<timer>") -> None:
        """Expire thread ``name``'s wait or acquire as a timeout (used for
        natural virtual-time expiry and by fault-plan ``timeout`` rules
        forcing one).  A monitor waiter wakes with ``reason="timeout"``; a
        timed semaphore acquire resolves ``False`` (``tryAcquire`` on
        virtual time).  Raises ``UnknownSyscallError`` unless the thread's
        primitive says its park is expirable."""
        thread = self.threads.get(name)
        primitive = self.primitive_of(thread) if thread is not None else None
        if primitive is None or not primitive.expirable(thread):
            raise UnknownSyscallError(
                f"cannot expire wait of {name!r}: not in an expirable wait"
            )
        primitive.cancel(self, thread, WakeReason.TIMEOUT, by)

    def _expire_deadlines(self) -> None:
        """Expire every park whose deadline has been reached — waits
        before acquires (WAITING before BLOCKED), each in thread order —
        then recompute the deadline index."""
        now = self.time
        due = [
            t for t in self.threads.values()
            if t.deadline is not None and now >= t.deadline
        ]
        due.sort(key=_is_blocked)
        for thread in due:
            # An earlier expiry may already have granted this thread.
            if thread.deadline is not None:
                self.expire_wait(thread.name)
        self._next_deadline = self._earliest_deadline()

    def _earliest_deadline(self) -> float:
        """The earliest armed deadline, or ``math.inf`` when none is."""
        return min(
            (t.deadline for t in self.threads.values() if t.deadline is not None),
            default=math.inf,
        )

    # -- native observability counters --------------------------------------------------

    def thread_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-thread scheduler counters, maintained natively by the run
        loop (no event replay needed): ``context_switches`` (times the
        thread was scheduled after a different thread ran), and the
        virtual-time totals ``blocked_ticks`` / ``waiting_ticks``.  The
        :class:`~repro.obs.InstrumentationSink` consumes these directly
        instead of re-deriving them from the trace."""
        return {
            t.name: {
                "context_switches": t.context_switches,
                "blocked_ticks": t.blocked_ticks,
                "waiting_ticks": t.waiting_ticks,
            }
            for t in self.threads.values()
        }

    # -- diagnosis ----------------------------------------------------------------------

    def _blocked_edges(self) -> Dict[str, List[str]]:
        """The wait-for graph over BLOCKED threads: each waits on what its
        primitive says (:meth:`Primitive.waits_on
        <repro.vm.primitives.Primitive.waits_on>`)."""
        edges: Dict[str, List[str]] = {}
        for thread in self.threads.values():
            if thread.state is _BLOCKED and thread.blocked_on:
                succ = self.primitives[thread.blocked_on].waits_on(thread)
                if succ:
                    edges[thread.name] = succ
        return edges

    def _wait_for_cycle(self) -> List[str]:
        """Find a cycle in the wait-for graph (thread -> threads holding
        what it is blocked on).  Returns the cycle's thread names, or [].
        Exploration follows thread-insertion order, so monitor-only graphs
        yield exactly the cycles the pre-wait-queue chain walk found."""
        return find_cycle(self._blocked_edges())

    # -- the run loop ----------------------------------------------------------------------

    def _thread_stopped(self, thread: SimThread, stop: Exception) -> None:
        """End ``thread``, whose body stopped with ``stop``, and release
        the monitors it still holds.  Returning (``StopIteration``) ends
        it; so does propagating an ``InterruptedError``, the *correct*
        response to interruption (Java's cancellation contract), marked
        interrupted; anything else crashes it."""
        self._ready = None
        thread.ended_at = self.time
        if isinstance(stop, StopIteration):
            thread.state = _TERMINATED
            thread.result = stop.value
            self.emit(thread.name, _THREAD_END, result=stop.value)
        elif isinstance(stop, InterruptedError):
            thread.state = _TERMINATED
            self.emit(thread.name, _THREAD_END, result=None, interrupted=True)
        else:
            thread.state = _CRASHED
            thread.exception = stop
            self.emit(thread.name, _THREAD_CRASH, error=repr(stop))
        self._release_abandoned_locks(thread)

    def _release_abandoned_locks(self, thread: SimThread) -> None:
        """Release any monitors a dead thread still holds (as Java does when
        a synchronized block unwinds on exception)."""
        while thread.held:
            name, _ = thread.held[-1]
            monitor = self.monitors[name]
            thread.pop_hold(name)
            monitor.entry_count -= 1
            if monitor.entry_count <= 0:
                monitor.free(self.time)
                self.emit(thread.name, _MONITOR_RELEASE, monitor=name, abandoned=True)
                monitor.grant(self)

    def _dispatch(self, thread: SimThread, syscall: Syscall) -> None:
        """Run ``syscall``'s handler from the dispatch table.  A subclass
        of a syscall dispatches as its nearest syscall base in its MRO,
        resolved on first use and cached in the table."""
        kind = type(syscall)
        handler = _SYSCALL_HANDLERS.get(kind)
        if handler is None:
            for base in kind.__mro__[1:]:
                if base in _SYSCALL_HANDLERS:
                    handler = _SYSCALL_HANDLERS[kind] = _SYSCALL_HANDLERS[base]
                    break
            else:
                raise UnknownSyscallError(
                    f"thread {thread.name!r} yielded {syscall!r}"
                )
        handler(self, thread, syscall)

    def step(self) -> bool:
        """Execute one scheduling step.  Returns False at quiescence."""
        if self.fault_injector is not None:
            self.fault_injector.on_step(self)
        if self.spurious_wakeup_rate > 0.0:
            self._maybe_spurious_wakeup()
        if self.time >= self._next_deadline:
            self._expire_deadlines()
        ready = self._ready
        if ready is None:
            # one pass builds both lists; kept until the runnable set
            # changes, and never mutated: a scheduler may hold them
            runnable: List[SimThread] = []
            names: List[str] = []
            for t in self.threads.values():
                state = t.state
                if state is _RUNNABLE or state is _NEW:
                    runnable.append(t)
                    names.append(t.name)
            ready = self._ready = (runnable, names)
        runnable, names = ready
        if not runnable:
            if self.auto_tick and self._clock_waiters:
                target = min(t.await_target or 0 for t in self._clock_waiters)
                while self.clock_time < target:
                    self._do_tick(by="<auto>")
                return True
            deadline = self._earliest_deadline()
            if deadline < math.inf:
                # Quiescent but for timed waiters/acquirers: advance
                # virtual time to the earliest deadline (the virtual-time
                # analogue of auto_tick) instead of declaring STUCK.
                if deadline > self.time:
                    self.time = int(deadline)
                self._expire_deadlines()
                return True
            return False
        index = self.scheduler.pick("run", names)
        if not 0 <= index < len(names):
            raise UnknownSyscallError(
                f"scheduler returned invalid index {index} for {len(names)} threads"
            )
        thread = runnable[index]
        if thread.name != self._last_scheduled:
            thread.context_switches += 1
            self._last_scheduled = thread.name
        self.schedule_log.append(thread.name)
        self.choice_log.append(index)
        if thread.state is _NEW:
            thread.state = _RUNNABLE
            thread.started_at = self.time
            self.emit(thread.name, _THREAD_START)
        _CURRENT.append((self, thread))
        try:
            exc = thread.throw_exc
            if exc is None:
                value = thread.send_value
                thread.send_value = None
                syscall = thread.body.send(value)
            else:
                thread.throw_exc = None
                syscall = thread.body.throw(exc)
        except Exception as stop:  # noqa: BLE001 - thread bodies may raise anything
            self._thread_stopped(thread, stop)
            syscall = None
        finally:
            _CURRENT.pop()
        self.time += 1
        self.steps += 1
        if syscall is not None:
            handler = _SYSCALL_HANDLERS.get(type(syscall))
            try:
                if handler is not None:
                    handler(self, thread, syscall)
                else:  # a syscall subclass, or not a syscall at all
                    self._dispatch(thread, syscall)
            except (IllegalMonitorStateError, UnknownSyscallError) as exc:
                # Deliver at the faulting yield point, Java-style: the
                # thread sees the exception raised from its wait()/notify().
                thread.throw_exc = exc
        return True

    def run(self) -> RunResult:
        """Run to quiescence or the step budget; never raises for
        concurrency failures — inspect/raise via the :class:`RunResult`."""
        self.scheduler.reset()
        self._ran = True
        status = RunStatus.COMPLETED
        while True:
            if self.abort_reason is not None:
                # Early abort (online detector found a permanent failure):
                # fall through to the normal quiescence diagnosis below.
                break
            if self.steps >= self.max_steps:
                status = RunStatus.STEP_LIMIT
                break
            if not self.step():
                break
        # Close the open blocked/waiting intervals of threads still queued
        # at the end, so the native tick counters include time-to-end (a
        # deadlocked thread's blocked_ticks reach the quiescence point).
        for t in self.threads.values():
            if t.blocked_since is not None:
                t.blocked_ticks += self.time - t.blocked_since
                t.blocked_since = None
            if t.waiting_since is not None:
                t.waiting_ticks += self.time - t.waiting_since
                t.waiting_since = None
        live = [t for t in self.threads.values() if t.is_live()]
        cycle = self._wait_for_cycle() if live else []
        if status is not RunStatus.STEP_LIMIT:
            if live:
                status = RunStatus.DEADLOCK if cycle else RunStatus.STUCK
            else:
                status = RunStatus.COMPLETED
        result = RunResult(
            status=status,
            trace=self.trace,
            steps=self.steps,
            thread_results={
                t.name: t.result
                for t in self.threads.values()
                if t.state is _TERMINATED
            },
            thread_states={t.name: t.state.value for t in self.threads.values()},
            deadlock_cycle=cycle,
            stuck_threads=[t.name for t in live],
            crashed={
                t.name: t.exception
                for t in self.threads.values()
                if t.state is _CRASHED and t.exception is not None
            },
            schedule_log=list(self.schedule_log),
            abort_reason=self.abort_reason,
        )
        return result


#: The one syscall dispatch table: syscall type -> handler taking
#: ``(kernel, thread, syscall)``.  :meth:`Kernel._dispatch` adds each
#: subclass of these types on first use.
_SYSCALL_HANDLERS: Dict[type, Callable[[Kernel, SimThread, Any], None]] = {
    Acquire: Kernel._sys_acquire,
    Release: Kernel._sys_release,
    Wait: Kernel._sys_wait,
    Notify: Kernel._sys_notify,
    NotifyAll: partial(Kernel._sys_notify, all_waiters=True),
    Read: Kernel._sys_access,
    Write: partial(Kernel._sys_access, kind=EventKind.WRITE),
    Interrupt: Kernel._sys_interrupt,
    Tick: Kernel._sys_tick,
    AwaitTime: Kernel._sys_await,
    GetTime: Kernel._sys_get_time,
    Yield: Kernel._sys_yield,
    CallBegin: Kernel._sys_call_begin,
    CallEnd: Kernel._sys_call_end,
    SemAcquire: lambda k, t, c: k._resolve(c.semaphore, SemaphoreObject).acquire(k, t, c),
    SemRelease: lambda k, t, c: k._resolve(c.semaphore, SemaphoreObject).release(k, t, c),
    RwAcquire: lambda k, t, c: k._resolve(c.lock, RwLockObject).acquire(k, t, c),
    RwRelease: lambda k, t, c: k._resolve(c.lock, RwLockObject).release(k, t, c),
    BarrierAwait: lambda k, t, c: k._resolve(c.barrier, BarrierObject).arrive(k, t, c),
}
