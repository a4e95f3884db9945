"""A finished run is freed before the next one starts.

The explorers drop their references to a run once it is recorded (unless
``keep_runs``), the executor releases each run's kernel when it builds
the next, and a shard releases its last run when it ends.  So reference
counting frees every run, trace and all: a shard leaves no unreachable
``Kernel`` or ``Event`` for the collector, and a run's trace is dead by
the time the next run starts.
"""

import gc
import weakref

import pytest

from repro.engine.shards import Shard
from repro.engine.worker import WorkerTask, execute_shard
from repro.run import RunConfig
from repro.run.executor import RunExecutor
from repro.testing.explorer import explore_random, explore_systematic
from repro.vm.events import Event
from repro.vm.kernel import Kernel
from tests.run.test_executor_reuse import WORKLOAD_OF

RUNS = 5

#: trace-``full`` configs: detection and metrics off (the kernel step loop
#: alone), on, and over the four primitives
CONFIGS = {
    "pc-bug": RunConfig(workload="pc-bug"),
    "pc-bug+detect+metrics": RunConfig(workload="pc-bug", detect=True, metrics=True),
    "mixed-deadlock+detect": RunConfig(workload="mixed-deadlock", detect=True),
    "rw": RunConfig(workload=WORKLOAD_OF["rw+NativeReadWriteLock"]),
    "barrier": RunConfig(workload=WORKLOAD_OF["barrier-meet+CyclicBarrier"]),
    "semaphore": RunConfig(workload=WORKLOAD_OF["sem+LostPermitSemaphore"]),
}

SHARDS = {
    "random": Shard(
        shard_id="free-random", mode="random", seeds=tuple(range(RUNS)), max_runs=RUNS
    ),
    "systematic": Shard(
        shard_id="free-systematic", mode="systematic", prefixes=((),), max_runs=RUNS
    ),
}


@pytest.mark.parametrize("shard", sorted(SHARDS))
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_shard_leaves_no_unreachable_kernel_or_event(name, shard):
    task = WorkerTask(shard=SHARDS[shard], config=CONFIGS[name])
    gc.collect()
    before = len(gc.garbage)
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        outcome = execute_shard(task)
        gc.collect()
        kernels = sum(isinstance(obj, Kernel) for obj in gc.garbage[before:])
        events = sum(isinstance(obj, Event) for obj in gc.garbage[before:])
    finally:
        gc.set_debug(0)
        del gc.garbage[before:]
        gc.enable()
    assert len(outcome.summaries) == RUNS
    assert (kernels, events) == (0, 0)


@pytest.mark.parametrize("mode", ["random", "systematic"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_run_is_freed_before_the_next_starts(name, mode):
    executor = RunExecutor(CONFIGS[name])
    traces = []
    alive_at_start = []

    def runner(kernel):
        alive_at_start.append(sum(ref() is not None for ref in traces))
        result = executor.runner(kernel)
        traces.append(weakref.ref(result.trace))
        return result

    gc.disable()  # only reference counting may free a run
    try:
        if mode == "random":
            explore_random(
                executor,
                seeds=range(RUNS),
                on_run=executor.summarize,
                keep_runs=False,
                runner=runner,
            )
        else:
            explore_systematic(
                executor,
                max_runs=RUNS,
                on_run=executor.summarize,
                keep_runs=False,
                runner=runner,
            )
        executor.release()
        left_alive = sum(ref() is not None for ref in traces)
    finally:
        gc.enable()
    assert alive_at_start == [0] * RUNS
    assert left_alive == 0


def test_executor_runs_again_after_release():
    config = CONFIGS["pc-bug+detect+metrics"]
    executor = RunExecutor(config)
    first = executor.explore("random", seeds=[3])
    before = executor.summarize(first.runs[0]).to_dict()
    executor.release()
    executor.release()
    again = executor.explore("random", seeds=[3])
    after = executor.summarize(again.runs[0]).to_dict()
    for summary in (before, after):
        summary.pop("metrics")  # carries wall-clock readings
    assert after == before
