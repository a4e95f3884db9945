"""Where the kernel hands a batch over while a thread is blocked on a
semaphore or rw-lock.

While such a thread is blocked, :meth:`~repro.vm.kernel.Kernel.park`
makes every step that emitted a request or a grant
(:data:`~repro.vm.events.EDGE_KINDS`) hand its events over; the events
of other steps wait for the next batch.  The wait-for detector can only
find a new cycle after one of those events, so the batched pipeline
still stops where a pipeline fed each event as it is emitted stops
(``tests/detect/test_hand_over.py`` holds that on every conformance
program).  Here:

* a program whose wait-for cycle, as the detector sees it, appears on a
  step in which no thread parks: a reader barging past a queued writer
  under reader preference is granted at once, but the detector makes a
  read request wait on the queued writers, so it sees the cycle at the
  request.  A rule that handed over only at parks would stop that run
  late;
* every batch but a run's last holds a request or a grant, or a full
  :data:`~repro.vm.kernel.CHUNK_EVENTS`, on the semaphore and rw-lock
  programs;
* a semaphore run hands over on fewer steps than it takes.
"""

import pytest

from repro.detect.online import DetectorPipeline, OnlineDetector, default_detectors
from repro.vm import (
    Acquire,
    Kernel,
    RandomScheduler,
    Release,
    RwAcquire,
    RwRelease,
    Yield,
)
from repro.vm.events import EDGE_KINDS
from repro.vm.kernel import CHUNK_EVENTS
from repro.vm.thread import ThreadState
from tests.detect.test_hand_over import assert_same_run, with_bystander
from tests.vm.test_ready_set import PROGRAMS

SEEDS = range(30)


def barging_reader(scheduler):
    """``r`` reads ``rw`` and then blocks on ``m``, held by ``b``; ``w``
    queues to write behind ``r``; ``b`` then reads ``rw``, granted at
    once under reader preference.  The detector sees ``b -> w -> r`` at
    ``b``'s request, on a step in which nobody parks."""
    kernel = Kernel(scheduler=scheduler, max_steps=500)
    kernel.new_rwlock("rw", preference="reader")
    kernel.new_monitor("m")

    def reader():
        yield RwAcquire("rw", "read")
        yield Yield()
        yield Acquire("m")
        yield Release("m")
        yield RwRelease("rw")

    def writer():
        yield RwAcquire("rw", "write")
        yield RwRelease("rw")

    def barger():
        yield Acquire("m")
        yield Yield()
        yield RwAcquire("rw", "read")
        yield RwRelease("rw")
        yield Release("m")

    kernel.spawn(reader, name="r")
    kernel.spawn(writer, name="w")
    kernel.spawn(barger, name="b")
    return kernel


class ParkLog:
    """The kernel steps at which some thread parked BLOCKED."""

    def __init__(self, kernel):
        self.steps = set()
        park = kernel.park

        def logged(thread, on, state=ThreadState.BLOCKED, arg=None, deadline=None):
            if state is ThreadState.BLOCKED:
                self.steps.add(kernel.steps)
            park(thread, on, state, arg, deadline)

        kernel.park = logged


def test_a_cycle_closed_without_a_park_stops_the_run_on_its_step():
    without_park = 0
    for seed in SEEDS:
        for program in (barging_reader, with_bystander(barging_reader)):
            assert_same_run(program, lambda: RandomScheduler(seed))
        kernel = barging_reader(RandomScheduler(seed))
        parks = ParkLog(kernel)
        DetectorPipeline().bind(kernel)
        result = kernel.run()
        if result.abort_reason is not None:
            assert result.abort_reason == "wait-for cycle: b -> w -> r"
            without_park += result.steps not in parks.steps
    assert without_park, "no seed closed the cycle on a step without a park"


class BatchLog(OnlineDetector):
    """A pipeline member that keeps each batch it is handed."""

    name = "batches"

    def __init__(self):
        self.batches = []

    def fold(self, events):
        self.batches.append(list(events))

    def finish(self):
        return []


#: the conformance programs with a semaphore or an rw-lock
PRIMITIVE_PROGRAMS = sorted(
    name for name in PROGRAMS if "sem" in name or "rw" in name or "mixed" in name
)


@pytest.mark.parametrize("name", PRIMITIVE_PROGRAMS)
def test_every_batch_but_the_last_holds_a_request_or_a_grant(name):
    for seed in range(10):
        kernel = PROGRAMS[name](RandomScheduler(seed))
        batches = BatchLog()
        DetectorPipeline([*default_detectors(), batches]).bind(kernel)
        kernel.run()
        for batch in batches.batches[:-1]:
            assert len(batch) >= CHUNK_EVENTS or any(
                event.kind in EDGE_KINDS for event in batch
            ), (seed, [event.kind.name for event in batch])


def test_a_semaphore_run_hands_over_on_fewer_steps_than_it_takes():
    handed = steps = 0
    for seed in range(20):
        kernel = PROGRAMS["sem/NativeSemaphore"](RandomScheduler(seed))
        batches = BatchLog()
        DetectorPipeline([*default_detectors(), batches]).bind(kernel)
        steps += kernel.run().steps
        handed += len(batches.batches)
    assert handed < steps / 2, (handed, steps)
