"""Detection never changes a run's outcome.

A bound :class:`~repro.detect.online.DetectorPipeline` may end a run
early, on a wait-for cycle it takes to be permanent, so the run it stops
should reach the same diagnosis on its own.  Every conformance program
of ``tests/vm/test_ready_set.py``, and a program whose interrupt takes
a thread out of a monitor's entry set, runs under random seeds 0-19
twice, with and without a bound pipeline:

* both runs end with the same status;
* a run the pipeline did not abort takes the same steps and decisions
  both ways;
* an aborted run is a deadlock both ways.

Underneath, the wait-for and starvation detectors must track each
monitor's entry set exactly, whatever takes a thread out of it: at every
step boundary of those programs, their monitor queues equal the
kernel's.
"""

import pytest

from repro.detect.online import DetectorPipeline
from repro.detect.starvation import OnlineStarvationDetector
from repro.detect.waitgraph import OnlineWaitGraphDetector
from repro.vm import (
    Acquire,
    Interrupt,
    Kernel,
    RandomScheduler,
    Release,
    RunStatus,
    Yield,
)
from repro.vm.thread import ThreadState
from tests.detect.test_completion_and_starvation import interrupted_acquirer_kernel
from tests.vm.test_ready_set import PROGRAMS

SEEDS = range(20)


def interrupted_acquirer(scheduler):
    """``t`` holds ``x`` and blocks on ``m``, which ``v`` holds; ``i``
    interrupts ``t``, which leaves the entry set of ``m`` and releases
    ``x``; only then does ``v`` request ``x``.  A run whose interrupt
    finds ``t`` blocked never deadlocks, so a wait-for edge ``t -> v``
    kept past the interrupt closes a cycle that does not exist.  (An
    interrupt that comes before ``t`` blocks only sets its flag, which a
    monitor acquire does not read: those runs may deadlock, both ways.)"""
    kernel = Kernel(scheduler=scheduler, max_steps=500)
    kernel.new_monitor("x")
    kernel.new_monitor("m")
    interrupted = []

    def holder():
        yield Acquire("x")
        try:
            yield Acquire("m")
        except InterruptedError:
            pass
        else:
            yield Release("m")
        yield Release("x")

    def owner():
        yield Acquire("m")
        while not interrupted:
            yield Yield()
        yield Acquire("x")
        yield Release("x")
        yield Release("m")

    def interrupter():
        yield Interrupt("t")
        interrupted.append(True)

    kernel.spawn(holder, name="t")
    kernel.spawn(owner, name="v")
    kernel.spawn(interrupter, name="i")
    return kernel


CASES = {**PROGRAMS, "interrupted-monitor-acquirer": interrupted_acquirer}


def outcomes(program, seed):
    natural = program(RandomScheduler(seed)).run()
    kernel = program(RandomScheduler(seed))
    DetectorPipeline().bind(kernel)
    return natural, kernel.run()


@pytest.mark.parametrize("name", sorted(CASES))
def test_detection_keeps_the_outcome(name):
    for seed in SEEDS:
        natural, detected = outcomes(CASES[name], seed)
        assert detected.status is natural.status, seed
        if detected.abort_reason is None:
            assert detected.steps == natural.steps, seed
            assert detected.choice_log == natural.choice_log, seed
        else:
            assert detected.status is RunStatus.DEADLOCK, seed


def test_the_interrupt_program_meets_the_stale_edge():
    """Some seeds interrupt ``t`` while it is blocked on ``m`` and let
    ``v`` request ``x`` before ``t`` releases it, and every such run
    completes: the case a stale edge convicts."""
    program = CASES["interrupted-monitor-acquirer"]
    statuses = {}
    for seed in SEEDS:
        natural, _ = outcomes(program, seed)
        first = {}
        for e in natural.trace:
            first.setdefault((e.thread, e.kind.name, e.monitor), e)
        interrupt = first.get(("t", "INTERRUPT", None))
        request = first.get(("v", "MONITOR_REQUEST", "x"))
        release = first.get(("t", "MONITOR_RELEASE", "x"))
        if (
            interrupt is not None
            and interrupt.detail["thread_state"] == "blocked"
            and request is not None
            and release is not None
            and request.seq < release.seq
        ):
            statuses[seed] = natural.status
    assert statuses, "no seed requests x while the interrupted t still holds it"
    assert set(statuses.values()) == {RunStatus.COMPLETED}


QUEUE_CASES = {**CASES, "interrupted-then-waiting": interrupted_acquirer_kernel}


@pytest.mark.parametrize("name", sorted(QUEUE_CASES))
def test_detector_monitor_queues_track_the_kernel(name):
    """After every step, the threads the starvation detector holds queued
    on each monitor, and those the wait-for detector holds blocked on a
    monitor, are the kernel's: an interrupted fresh acquirer leaves, an
    interrupted reacquirer stays."""
    for seed in range(10):
        kernel = QUEUE_CASES[name](RandomScheduler(seed))
        starvation, waitgraph = OnlineStarvationDetector(), OnlineWaitGraphDetector()
        kernel.subscribe(starvation.on_event)
        kernel.subscribe(waitgraph.on_event)
        kernel.scheduler.reset()
        while kernel.steps < kernel.max_steps and kernel.step():
            for monitor_name, monitor in kernel.monitors.items():
                queued = set(starvation._entry_sets.get(monitor_name, {}))
                assert queued == set(monitor.entry_set.snapshot()), (
                    seed, kernel.steps, monitor_name
                )
            blocked = {
                t.name: t.blocked_on
                for t in kernel.threads.values()
                if t.state is ThreadState.BLOCKED and t.blocked_on in kernel.monitors
            }
            state = waitgraph.state
            tracked = {
                t: m for t, m in state.blocked_on.items() if t not in state.request_kind
            }
            assert tracked == blocked, (seed, kernel.steps)
