"""The kernel's recorded choices against a recording scheduler.

Random and PCT exploration take a run's decisions from
``Kernel.choice_log`` instead of wrapping the scheduler in a
:class:`RecordingScheduler`.  For every program of the batch==online
suite, under the random, PCT, systematic and replay schedulers, and for
the three fault-plan templates, the kernel must record exactly the
indices a recording scheduler logs, and the explorers' ``schedule_key``
must equal the key of the recorded decisions.
"""

import pytest

from repro.run import RunConfig
from repro.run.executor import RunExecutor
from repro.testing.explorer import (
    RunSummary,
    explore_pct,
    explore_random,
    explore_systematic,
)
from repro.vm.kernel import RunStatus
from repro.vm.pct import PCTScheduler
from repro.vm.scheduler import (
    FifoScheduler,
    RandomScheduler,
    RecordingScheduler,
    ReplayScheduler,
)
from tests.detect.test_online_equivalence import FACTORIES

SEEDS = range(4)
#: systematic runs per program
RUNS = 6

SEEDED = {
    "random": (explore_random, lambda seed: RandomScheduler(seed)),
    "pct": (
        explore_pct,
        lambda seed: PCTScheduler(seed=seed, depth=3, expected_steps=200),
    ),
}

#: fault-plan template -> the component it is aimed at
FAULT_PLANS = {
    "interrupt-consumer": "InterruptSwallowingProducerConsumer",
    "expire-first-wait": "TimeoutReturnProducerConsumer",
    "spurious-first-wait": "SpuriousUnguardedProducerConsumer",
}


def recorded(factory, scheduler):
    """Run ``factory`` under ``scheduler`` wrapped in a recorder: the
    kernel's choices and the recorder's, side by side."""
    recorder = RecordingScheduler(scheduler)
    kernel = factory(recorder)
    kernel.run()
    return list(kernel.choice_log), [d.chosen for d in recorder.log]


def key_of(decisions):
    summary = RunSummary(
        index=0, status=RunStatus.COMPLETED.value, decisions=tuple(decisions)
    )
    return summary.schedule_key


@pytest.mark.parametrize("mode", sorted(SEEDED))
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_seeded_choices_match_the_recorder(name, mode):
    explore, make = SEEDED[mode]
    factory = FACTORIES[name]
    result = explore(factory, seeds=SEEDS)
    assert [run.seed for run in result.runs] == list(SEEDS)
    for run in result.runs:
        kernel_choices, logged = recorded(factory, make(run.seed))
        assert kernel_choices == logged
        assert list(run.decisions) == logged, f"seed {run.seed}"
        assert run.summary().schedule_key == key_of(logged)


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_systematic_choices_match_the_recorder(name):
    factory = FACTORIES[name]
    recorders = []

    def capturing(scheduler):
        recorders.append(scheduler)
        return factory(scheduler)

    result = explore_systematic(capturing, max_runs=RUNS)
    assert len(result.runs) == len(recorders) > 0
    for run, recorder in zip(result.runs, recorders):
        logged = [d.chosen for d in recorder.log]
        assert list(run.decisions) == logged
        assert run.summary().schedule_key == key_of(logged)
        kernel_choices, relogged = recorded(
            factory, ReplayScheduler(run.prefix, fallback=FifoScheduler())
        )
        assert kernel_choices == relogged == logged


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_replay_choices_match_the_recorder(name):
    """Replaying a random run's decisions records them again, exactly."""
    factory = FACTORIES[name]
    for run in explore_random(factory, seeds=SEEDS).runs:
        kernel_choices, logged = recorded(
            factory, ReplayScheduler(run.decisions, strict=True)
        )
        assert kernel_choices == logged == list(run.decisions)


@pytest.mark.parametrize("plan", sorted(FAULT_PLANS))
@pytest.mark.parametrize("mode", sorted(SEEDED))
def test_fault_plan_choices_match_the_recorder(plan, mode):
    config = RunConfig(workload="pc", component=FAULT_PLANS[plan], faults=plan)
    executor = RunExecutor(config)
    make = SEEDED[mode][1]  # RunConfig's PCT defaults are explore_pct's
    result = executor.explore(mode, seeds=SEEDS)
    for run in result.runs:
        kernel_choices, logged = recorded(executor, make(run.seed))
        assert kernel_choices == logged
        assert list(run.decisions) == logged, f"seed {run.seed}"
        assert run.summary().schedule_key == key_of(logged)
