"""The systematic walker's run order, pinned by digest.

For every registered workload, and for each workload template with
every registered component it fits (the configs of
``tests/obs/test_record_pin.py``: no faults, a spurious-wakeup rate of
0.2, and each registered fault plan), under ``branch="shallow"`` and
``branch="deep"``:

* the first ``RUNS`` runs of :func:`explore_systematic`, as one
  ``[prefix, decisions]`` JSON line per run in run order, followed by
  the walk's ``pending`` stack and ``exhausted`` flag;
* the shards :func:`plan_systematic_shards` deals for a budget of
  ``PLAN_BUDGET`` over ``PLAN_SHARDS`` shards: the planner's own runs,
  then each shard's frontier prefixes, then ``exhausted``.

Each is hashed to one sha256.  A change to how a run's decisions are
recorded, or how the walker branches on them, must leave every digest
as it is.

Regenerate the pin file (only when a change to the walk is intended,
with the reason recorded) with::

    PYTHONPATH=src:. python tests/testing/test_walker_pin.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.engine.shards import plan_systematic_shards
from repro.run import RunConfig, RunExecutor
from repro.testing.explorer import explore_systematic
from tests.obs.test_record_pin import fault_settings, programs

PIN_FILE = Path(__file__).with_name("walker_pin.json")

RUNS = 200
BRANCHES = ("shallow", "deep")
PLAN_BUDGET = 1000
PLAN_SHARDS = 4


def configs():
    """label -> RunConfig of every pinned config that validates."""
    table = {}
    for workload, component in programs():
        for setting, options in fault_settings():
            config = RunConfig(workload=workload, component=component, **options)
            try:
                config.validate()
            except ValueError:
                continue
            program = workload if component is None else f"{workload}+{component}"
            table[f"{program}/{setting}"] = config
    return table


def _digest(lines):
    text = "\n".join(json.dumps(line, separators=(",", ":")) for line in lines)
    return hashlib.sha256(text.encode()).hexdigest()


def walk_digest(executor, branch):
    lines = []

    def on_run(run):
        lines.append([list(run.prefix), list(run.decisions)])

    result = explore_systematic(
        executor, max_runs=RUNS, branch=branch, on_run=on_run, keep_runs=False
    )
    lines.append([list(p) for p in result.pending])
    lines.append(result.exhausted)
    return _digest(lines)


def plan_digest(executor, branch):
    plan = plan_systematic_shards(
        executor, budget=PLAN_BUDGET, n_shards=PLAN_SHARDS, branch=branch
    )
    lines = [[list(s.prefix), list(s.decisions)] for s in plan.planner_summaries]
    lines.extend([list(p) for p in shard.prefixes] for shard in plan.shards)
    lines.append(plan.exhausted)
    return _digest(lines)


def digests(config):
    executor = RunExecutor(config)
    try:
        table = {}
        for branch in BRANCHES:
            table[branch] = walk_digest(executor, branch)
            table[f"plan-{branch}"] = plan_digest(executor, branch)
        return table
    finally:
        executor.release()


CONFIGS = configs()


def test_pin_covers_every_config():
    assert sorted(json.loads(PIN_FILE.read_text())) == sorted(CONFIGS)


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_walk_matches_the_pin(label):
    pinned = json.loads(PIN_FILE.read_text())
    assert digests(CONFIGS[label]) == pinned[label]


if __name__ == "__main__":
    table = {label: digests(CONFIGS[label]) for label in sorted(CONFIGS)}
    PIN_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(table)} configs to {PIN_FILE}", file=sys.stderr)
