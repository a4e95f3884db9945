"""The kernel's hand-over rule keeps early abort on its step.

Every detector folds batches the kernel hands over at step boundaries,
and the pipeline polls the wait-for detector after each batch.  The
kernel hands a batch over early, at the end of the step, whenever a
BLOCKED park can close a wait-for cycle (:meth:`Kernel.park`): behind a
monitor owner that is itself BLOCKED, and at every step while a thread
is blocked on a semaphore or rw-lock.  These tests hold the batched
pipeline with early stop to a pipeline fed each event as it is emitted,
which asks for the abort right after the event that proves it:

* a Hypothesis differential over the ready-set conformance programs
  (every registered workload, semaphores, rw-locks, barriers, fault
  plans, interrupts, timeouts, abandoned locks) under random, PCT and
  replay-prefix scheduling: steps, decisions, abort reason and summary;
* named cases: a nested-monitor lockout closed behind a notified
  reacquirer, and cycles closed on the timeout and interrupt ``cancel``
  paths;
* a guard that a pc-bug run, which never aborts, reaches the pipeline
  in exactly one batch;
* the wait-for detector's first cycle, which it searches for only after
  an event that can close one, against an exact search after every
  event on the same programs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detect.online import DetectorPipeline, default_detectors
from repro.run import RunConfig, RunExecutor
from repro.vm import (
    Acquire,
    Interrupt,
    Kernel,
    Notify,
    RandomScheduler,
    Release,
    RunStatus,
    Wait,
    Yield,
)
from repro.vm.kernel import CHUNK_EVENTS
from tests.detect.test_pipeline import Batches
from tests.vm.test_ready_set import PROGRAMS, SCHEDULERS, _scheduler


def with_bystander(program):
    """``program`` plus a thread that keeps running after any cycle
    closes, so a run that stopped late shows in its step count."""

    def build(scheduler):
        kernel = program(scheduler)

        def bystander():
            for _ in range(12):
                yield Yield()

        kernel.spawn(bystander, name="bystander")
        return kernel

    return build


def batched(program, scheduler):
    """A run whose pipeline folds the batches the kernel hands over."""
    kernel = program(scheduler)
    pipeline = DetectorPipeline().bind(kernel)
    return pipeline, kernel.run()


def per_event(program, scheduler):
    """A run whose pipeline sees each event as it is emitted, asking for
    the abort right after the event that proves it."""
    kernel = program(scheduler)
    pipeline = DetectorPipeline()

    def sink(event):
        pipeline.on_event(event)
        if pipeline.aborted is not None:
            kernel.request_abort(pipeline.aborted)

    kernel.subscribe(sink)
    return pipeline, kernel.run()


def assert_same_run(program, make_scheduler):
    pipeline, result = batched(program, make_scheduler())
    reference, natural = per_event(program, make_scheduler())
    assert result.steps == natural.steps
    assert result.choice_log == natural.choice_log
    assert result.abort_reason == natural.abort_reason == reference.aborted
    assert pipeline.aborted == result.abort_reason
    assert result.status is natural.status
    assert pipeline.summary(result) == reference.summary(natural)
    return result


@pytest.mark.parametrize("kind", SCHEDULERS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_batched_abort_lands_on_the_per_event_step(name, kind):
    for seed in (0, 1):
        for program in (PROGRAMS[name], with_bystander(PROGRAMS[name])):
            assert_same_run(
                program, lambda: _scheduler(kind, program, seed, 7 * seed + 3)
            )


@given(
    name=st.sampled_from(sorted(PROGRAMS)),
    kind=st.sampled_from(SCHEDULERS),
    seed=st.integers(min_value=0, max_value=10_000),
    cut=st.integers(min_value=0, max_value=200),
    bystander=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_batched_abort_lands_on_the_per_event_step_on_any_schedule(
    name, kind, seed, cut, bystander
):
    program = PROGRAMS[name]
    if bystander:
        program = with_bystander(program)
    assert_same_run(program, lambda: _scheduler(kind, program, seed, cut))


def test_the_differential_sees_early_aborts_of_every_shape():
    """With a bystander, runs end early — before the bystander is done —
    on monitor-only cycles and on cycles through a semaphore or
    rw-lock."""
    early = set()
    for name in ("deadlock-pair", "mixed-deadlock", "rw-upgrade"):
        for seed in range(8):
            program = with_bystander(PROGRAMS[name])
            _, result = batched(program, RandomScheduler(seed))
            if (
                result.abort_reason is not None
                and result.thread_states["bystander"] != "terminated"
            ):
                early.add(name)
    assert early == {"deadlock-pair", "mixed-deadlock", "rw-upgrade"}


# -- named cases -------------------------------------------------------------


def _nested_lockout(scheduler):
    """``w`` waits in ``inner`` holding ``outer``; ``n`` notifies it, so
    ``w`` reacquires ``inner`` BLOCKED behind ``n``, then blocks on
    ``outer`` behind ``w``: the notified reacquirer is the blocked owner
    the cycle closes behind."""
    kernel = Kernel(scheduler=scheduler, max_steps=500)
    kernel.new_monitor("outer")
    kernel.new_monitor("inner")

    def waiter():
        yield Acquire("outer")
        yield Acquire("inner")
        yield Wait("inner")
        yield Release("inner")
        yield Release("outer")

    def notifier():
        yield Acquire("inner")
        yield Notify("inner")
        yield Acquire("outer")
        yield Release("outer")
        yield Release("inner")

    kernel.spawn(waiter, name="w")
    kernel.spawn(notifier, name="n")
    return kernel


def _cancelled_wait(interrupt):
    """``w`` waits in ``inner`` holding ``outer``; ``b`` takes ``inner``
    and blocks on ``outer``; ``w``'s wait then ends without a notify —
    by its timeout, or by an interrupt — and its reacquire of ``inner``,
    owned by the BLOCKED ``b``, closes the cycle on the cancel path."""

    def program(scheduler):
        kernel = Kernel(scheduler=scheduler, max_steps=500)
        kernel.new_monitor("outer")
        kernel.new_monitor("inner")

        def waiter():
            yield Acquire("outer")
            yield Acquire("inner")
            try:
                yield Wait("inner", timeout=None if interrupt else 6)
            except InterruptedError:
                pass
            yield Release("inner")
            yield Release("outer")

        def blocker():
            yield Acquire("inner")
            yield Acquire("outer")
            yield Release("outer")
            yield Release("inner")

        def interrupter():
            for _ in range(8):
                yield Yield()
            yield Interrupt("w")

        kernel.spawn(waiter, name="w")
        kernel.spawn(blocker, name="b")
        if interrupt:
            kernel.spawn(interrupter, name="i")
        return kernel

    return program


NAMED = {
    "nested-lockout-behind-a-notified-reacquirer": _nested_lockout,
    "cycle-closed-by-a-wait-timeout": _cancelled_wait(interrupt=False),
    "cycle-closed-by-an-interrupt": _cancelled_wait(interrupt=True),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_cycle_aborts_on_its_step(name):
    program = with_bystander(NAMED[name])
    aborted = 0
    for seed in range(30):
        result = assert_same_run(program, lambda: RandomScheduler(seed))
        if result.abort_reason is not None:
            aborted += 1
            assert result.abort_reason.startswith("wait-for cycle: ")
            assert result.status is RunStatus.DEADLOCK
    assert aborted, f"{name}: no seed closed the cycle"


# -- no early hand-over where no cycle can close -----------------------------


def test_pc_bug_run_reaches_the_pipeline_in_one_batch():
    executor = RunExecutor(RunConfig(workload="pc-bug"))
    for seed in range(20):
        kernel = executor(RandomScheduler(seed))
        counter = Batches()
        DetectorPipeline([*default_detectors(), counter]).bind(kernel)
        result = kernel.run()
        assert result.abort_reason is None
        assert kernel.events_emitted < CHUNK_EVENTS
        assert counter.sizes == [kernel.events_emitted], seed
    executor.release()


# -- the wait-for detector's first cycle --------------------------------------


def test_live_cycle_is_the_first_cycle_an_exact_search_finds():
    """The fold searches for a cycle only after an event that can close
    one; an exact search after every event finds the same first cycle at
    the same event, on every conformance program and named case."""
    from repro.detect.waitgraph import OnlineWaitGraphDetector, _cycle_of

    programs = {**PROGRAMS, **NAMED}
    cycles = 0
    for name, program in sorted(programs.items()):
        for seed in range(6):
            trace = with_bystander(program)(RandomScheduler(seed)).run().trace
            detector, first = OnlineWaitGraphDetector(), []
            for event in trace:
                detector.fold((event,))
                first = first or _cycle_of(detector.state)
                assert detector.live_cycle == first, (name, seed, event.seq)
            cycles += bool(first)
    assert cycles
