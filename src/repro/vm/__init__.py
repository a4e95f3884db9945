"""The deterministic monitor virtual machine.

This package is the reproduction's substrate for Java monitor semantics:
simulated threads (generator coroutines), per-object monitors with entry
and wait sets, pluggable schedulers and fairness policies, an abstract
testing clock, and a complete event trace whose monitor-protocol events
map 1:1 onto the transitions T1..T5 of the paper's Figure-1 Petri net.

Quick start::

    from repro.vm import (
        Kernel, MonitorComponent, synchronized, Wait, NotifyAll,
        RandomScheduler,
    )

    class Cell(MonitorComponent):
        def __init__(self):
            super().__init__()
            self.full = False
            self.value = None

        @synchronized
        def put(self, v):
            while self.full:
                yield Wait()
            self.value, self.full = v, True
            yield NotifyAll()

        @synchronized
        def get(self):
            while not self.full:
                yield Wait()
            v, self.full = self.value, False
            yield NotifyAll()
            return v

    kernel = Kernel(scheduler=RandomScheduler(seed=42))
    cell = kernel.register(Cell())
    kernel.spawn(lambda: (yield from cell.put(1)), name="producer")
    kernel.spawn(lambda: (yield from cell.get()), name="consumer")
    result = kernel.run()
    assert result.ok and result.thread_results["consumer"] == 1
"""

from .api import MonitorComponent, is_synchronized, synchronized, unsynchronized
from .clock import TestClock
from .errors import (
    BrokenBarrierError,
    DeadlockError,
    IllegalMonitorStateError,
    StepLimitExceededError,
    StuckThreadsError,
    ThreadCrashedError,
    UnknownSyscallError,
    VMError,
)
from .events import TRANSITION_OF_EVENT, Event, EventKind, WakeReason
from .kernel import Kernel, RunResult, RunStatus, current_kernel, current_thread
from .monitor import MonitorObject, SelectionPolicy
from .pct import PCTScheduler
from .primitives import BarrierObject, RwLockObject, SemaphoreObject
from .scheduler import (
    ChoiceExhaustedError,
    FifoScheduler,
    NameReplayScheduler,
    RandomScheduler,
    ReplayScheduler,
    RoundRobinScheduler,
    Scheduler,
)
from .serialize import (
    dumps_trace,
    event_from_dict,
    event_to_dict,
    load_schedule,
    load_trace,
    loads_trace,
    save_trace,
)
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
from .trace import AccessRecord, CallRecord, Trace
from .waitq import WaitQueue, find_cycle

__all__ = [
    "AccessRecord",
    "Acquire",
    "AwaitTime",
    "BarrierAwait",
    "BarrierObject",
    "BrokenBarrierError",
    "CallBegin",
    "CallEnd",
    "CallRecord",
    "ChoiceExhaustedError",
    "DeadlockError",
    "Event",
    "EventKind",
    "FifoScheduler",
    "GetTime",
    "IllegalMonitorStateError",
    "Interrupt",
    "Kernel",
    "MonitorComponent",
    "MonitorObject",
    "NameReplayScheduler",
    "Notify",
    "NotifyAll",
    "PCTScheduler",
    "RandomScheduler",
    "Read",
    "Release",
    "ReplayScheduler",
    "RoundRobinScheduler",
    "RunResult",
    "RunStatus",
    "RwAcquire",
    "RwLockObject",
    "RwRelease",
    "Scheduler",
    "SelectionPolicy",
    "SemAcquire",
    "SemRelease",
    "SemaphoreObject",
    "SimThread",
    "StepLimitExceededError",
    "StuckThreadsError",
    "Syscall",
    "TRANSITION_OF_EVENT",
    "TestClock",
    "ThreadCrashedError",
    "ThreadState",
    "Tick",
    "Trace",
    "UnknownSyscallError",
    "VMError",
    "Wait",
    "WaitQueue",
    "WakeReason",
    "Write",
    "Yield",
    "current_kernel",
    "find_cycle",
    "dumps_trace",
    "event_from_dict",
    "event_to_dict",
    "load_schedule",
    "load_trace",
    "loads_trace",
    "save_trace",
    "current_thread",
    "is_synchronized",
    "synchronized",
    "unsynchronized",
]
