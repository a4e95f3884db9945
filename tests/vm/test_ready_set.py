"""Conformance of the kernel's kept ready lists.

``Kernel.step`` keeps its runnable-thread and name lists between steps
and rebuilds them only after a thread enters or leaves the runnable set
(spawn, park, unpark, clock resume, clock await, thread end or crash).
Under the random, PCT and replay-prefix schedulers, over every
registered workload (templates paired with their components), every
fault-plan template and programs for natural timeouts, interrupts,
abandoned locks, clock waits and rate-driven spurious wakeups:

* at every pick the scheduler is handed the kept names list, and the
  kept lists equal a fresh scan of ``kernel.threads`` in spawn order;
* no list the scheduler was handed has changed by the end of the run.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.components import (
    BoundedBuffer,
    CyclicBarrier,
    NativeBarrier,
    NativeReadWriteLock,
    NativeSemaphore,
    OrderedPair,
    ProducerConsumer,
    ReadersWriters,
    Semaphore,
)
from repro.components.faulty import DeadlockPair, LeakyBarrier
from repro.run.registry import COMPONENTS, FAULTS, WORKLOADS, load_builtins
from repro.vm import (
    Acquire,
    AwaitTime,
    Interrupt,
    Kernel,
    Release,
    Tick,
    Wait,
    Yield,
)
from repro.vm.pct import PCTScheduler
from repro.vm.scheduler import RandomScheduler, ReplayScheduler, Scheduler
from repro.vm.thread import ThreadState
from tests.detect.test_online_equivalence import faulted
from tests.integration.test_refactor_byte_identity import PROGRAMS as FAULT_PROGRAMS
from tests.testing.test_choice_parity import FAULT_PLANS

#: workload template -> the components it is run over
TEMPLATE_COMPONENTS = {
    "pc": (ProducerConsumer,),
    "buffer": (BoundedBuffer,),
    "rw": (ReadersWriters, NativeReadWriteLock),
    "sem": (Semaphore, NativeSemaphore),
    "barrier-meet": (CyclicBarrier, NativeBarrier, LeakyBarrier),
    "pair": (OrderedPair, DeadlockPair),
}


def _abandoned_locks(scheduler) -> Kernel:
    """Threads that end holding a monitor: by crashing, by letting an
    interrupt escape from a wait, and by returning."""
    kernel = Kernel(scheduler=scheduler, max_steps=500)
    kernel.new_monitor("m")

    def crasher():
        yield Acquire("m")
        yield Yield()
        raise RuntimeError("dies holding m")

    def quitter():
        yield Acquire("m")
        yield Wait("m")

    def returner():
        yield Acquire("m")
        return "keeps m"

    def waiter():
        yield Acquire("m")
        yield Release("m")

    def interrupter():
        yield Interrupt("q")

    kernel.spawn(crasher, name="x")
    kernel.spawn(quitter, name="q")
    kernel.spawn(returner, name="r")
    kernel.spawn(waiter, name="w")
    kernel.spawn(interrupter, name="i")
    return kernel


def _clock_waits(scheduler) -> Kernel:
    """Clock waiters resumed by a ticking thread."""
    kernel = Kernel(scheduler=scheduler, max_steps=500)

    def sleeper(target):
        yield AwaitTime(target)
        yield Yield()
        yield AwaitTime(target + 2)

    def ticker():
        for _ in range(6):
            yield Tick()

    kernel.spawn(sleeper, 1, name="s1")
    kernel.spawn(sleeper, 3, name="s3")
    kernel.spawn(ticker, name="t")
    return kernel


def _auto_tick(scheduler) -> Kernel:
    """Clock waiters with no ticker, resumed by the kernel's auto-tick at
    quiescence."""
    kernel = Kernel(scheduler=scheduler, max_steps=500, auto_tick=True)

    def sleeper(target):
        yield AwaitTime(target)
        yield Yield()

    for target in (2, 5, 5):
        kernel.spawn(sleeper, target, name="s")
    return kernel


def _noisy(scheduler) -> Kernel:
    """pc-ok under rate-driven spurious wakeups and lost notifies."""
    kernel = WORKLOADS.get("pc-ok")(scheduler)
    kernel.rng = random.Random(7)
    kernel.spurious_wakeup_rate = 0.3
    kernel.lost_notify_rate = 0.2
    return kernel


def _builtin_workloads():
    """The registered built-in workloads: name -> (workload, is it a
    template needing a component)."""
    load_builtins()
    found = {}
    for name in WORKLOADS.names():
        workload = WORKLOADS.get(name)
        if workload.__module__ == "repro.engine.workloads":
            found[name] = (workload, getattr(workload, "needs_component", False))
    return found


def _programs():
    programs = {}
    for name, (workload, template) in _builtin_workloads().items():
        if template:
            for component in TEMPLATE_COMPONENTS[name]:
                programs[f"{name}/{component.__name__}"] = workload(component)
        else:
            programs[name] = workload
    for plan_name, component in FAULT_PLANS.items():
        programs[f"pc/{component}+{plan_name}"] = faulted(
            WORKLOADS.get("pc")(COMPONENTS.get(component)), FAULTS.get(plan_name)
        )
    programs.update(FAULT_PROGRAMS)
    programs.update(
        {
            "abandoned-locks": _abandoned_locks,
            "clock-waits": _clock_waits,
            "auto-tick": _auto_tick,
            "noisy-pc-ok": _noisy,
        }
    )
    return programs


PROGRAMS = _programs()
SCHEDULERS = ("random", "pct", "replay-prefix")


def test_every_template_and_fault_plan_is_covered():
    builtins = _builtin_workloads()
    assert len(builtins) >= 12
    templates = {name for name, (_, template) in builtins.items() if template}
    assert templates == set(TEMPLATE_COMPONENTS)
    assert set(FAULTS.names()) == set(FAULT_PLANS)


class ReadySetChecker(Scheduler):
    """Wraps a run's scheduler and checks the kernel's kept lists at
    every pick, remembering each list handed over with a copy."""

    def __init__(self, inner: Scheduler) -> None:
        self.inner = inner
        self.kernel = None
        self.picks = 0
        #: id -> (list, its contents when first handed over)
        self.handed = {}

    def reset(self) -> None:
        self.inner.reset()

    def pick(self, kind, options):
        runnable, names = self.kernel._ready
        assert options is names
        fresh = [
            t
            for t in self.kernel.threads.values()
            if t.state in (ThreadState.NEW, ThreadState.RUNNABLE)
        ]
        assert [id(t) for t in runnable] == [id(t) for t in fresh]
        assert names == [t.name for t in fresh]
        for kept in (runnable, names):
            self.handed.setdefault(id(kept), (kept, tuple(kept)))
        self.picks += 1
        return self.inner.pick(kind, options)

    def assert_unchanged(self) -> None:
        for kept, contents in self.handed.values():
            assert tuple(kept) == contents


def _scheduler(kind: str, program, seed: int, cut: int) -> Scheduler:
    if kind == "random":
        return RandomScheduler(seed)
    if kind == "pct":
        return PCTScheduler(seed=seed, depth=3, expected_steps=100)
    recorded = program(RandomScheduler(seed))
    recorded.run()
    prefix = recorded.choice_log[: cut % (len(recorded.choice_log) + 1)]
    return ReplayScheduler(prefix, fallback=RandomScheduler(seed + 1))


def check(name: str, kind: str, seed: int, cut: int = 0) -> None:
    program = PROGRAMS[name]
    checker = ReadySetChecker(_scheduler(kind, program, seed, cut))
    kernel = checker.kernel = program(checker)
    result = kernel.run()
    assert checker.picks == result.steps > 0
    checker.assert_unchanged()


def test_thread_spawned_between_steps_joins_the_kept_lists():
    checker = ReadySetChecker(RandomScheduler(0))
    kernel = checker.kernel = Kernel(scheduler=checker)

    def body():
        yield Yield()
        yield Yield()

    kernel.spawn(body, name="a")
    assert kernel.step()
    kernel.spawn(body, name="b")
    while kernel.step():
        pass
    assert checker.picks == kernel.steps == 6
    checker.assert_unchanged()


@pytest.mark.parametrize("kind", SCHEDULERS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_kept_lists_match_a_fresh_scan(name, kind):
    for seed in (0, 1):
        check(name, kind, seed, cut=7 * seed + 3)


@given(
    name=st.sampled_from(sorted(PROGRAMS)),
    kind=st.sampled_from(SCHEDULERS),
    seed=st.integers(min_value=0, max_value=10_000),
    cut=st.integers(min_value=0, max_value=200),
)
@settings(max_examples=150, deadline=None)
def test_kept_lists_match_a_fresh_scan_on_any_schedule(name, kind, seed, cut):
    check(name, kind, seed, cut)
