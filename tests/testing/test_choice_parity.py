"""The kernel's schedule record against a recording scheduler.

A run's only per-step record is ``Kernel.choice_log``; the ready names
list is logged in ``Kernel.ready_log`` only when it is rebuilt, and each
step's thread (``schedule_log``) and option count
(``Kernel.option_counts``) are derived from the two.  The explorers
branch on that record and never wrap their scheduler in a
:class:`RecordingScheduler`, which stays as the reference here:

* over the ready-set program sweep (every registered workload, the
  fault-plan templates, clock waits, auto-tick and spurious wakeups),
  under the random, PCT and replay-prefix schedulers and on arbitrary
  prefixes, every step's derived name, option count and options equal
  the recorder's;
* for every program of the batch==online suite, random, PCT,
  systematic and replay runs record exactly the indices the recorder
  logs, and the explorers' ``schedule_key`` is the key of those
  indices.
"""

from bisect import bisect_right

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

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
    Scheduler,
)
from tests.detect.test_online_equivalence import FACTORIES
from tests.vm.test_ready_set import FAULT_PLANS, PROGRAMS, SCHEDULERS, _scheduler

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


def offered(kernel):
    """The names list each step chose among, looked up in the kernel's
    ``ready_log`` (flattened ``position, names`` pairs): the last pair
    logged at or before the step."""
    starts, lists = kernel.ready_log[0::2], kernel.ready_log[1::2]
    return [
        lists[bisect_right(starts, step) - 1]
        for step in range(len(kernel.choice_log))
    ]


def check_record(program, scheduler):
    """Run ``program`` under a recorder of ``scheduler`` and compare the
    kernel's record with the recorder's at every step."""
    recorder = RecordingScheduler(scheduler)
    kernel = program(recorder)
    result = kernel.run()
    log = recorder.log
    assert len(log) == result.steps > 0
    assert kernel.choice_log == [d.chosen for d in log]
    names = [d.options[d.chosen] for d in log]
    assert kernel.schedule_log == result.schedule_log == names
    assert kernel.option_counts() == [len(d.options) for d in log]
    assert [tuple(options) for options in offered(kernel)] == [
        d.options for d in log
    ]


class PrefixScheduler(Scheduler):
    """Takes ``prefix[i] % len(options)`` at step ``i``, then FIFO: any
    list of integers is a valid decision prefix."""

    def __init__(self, prefix):
        self.prefix = prefix
        self._step = 0

    def reset(self):
        self._step = 0

    def pick(self, kind, options):
        step = self._step
        self._step += 1
        return self.prefix[step] % len(options) if step < len(self.prefix) else 0


@pytest.mark.parametrize("kind", SCHEDULERS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_record_matches_the_recorder_at_every_step(name, kind):
    program = PROGRAMS[name]
    for seed in (0, 1):
        check_record(program, _scheduler(kind, program, seed, 7 * seed + 3))


@given(
    name=st.sampled_from(sorted(PROGRAMS)),
    prefix=st.lists(st.integers(min_value=0, max_value=7), max_size=120),
)
@settings(max_examples=150, deadline=None)
def test_record_matches_the_recorder_on_any_prefix(name, prefix):
    check_record(PROGRAMS[name], PrefixScheduler(prefix))


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
    result = explore_systematic(factory, max_runs=RUNS)
    assert result.runs
    for run in result.runs:
        kernel_choices, logged = recorded(
            factory, ReplayScheduler(run.prefix, fallback=FifoScheduler())
        )
        assert list(run.decisions) == kernel_choices == logged
        assert run.summary().schedule_key == key_of(logged)


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
