"""Every run's metrics record, pinned by digest.

For every registered workload, and for each workload template with
every registered component it fits, the per-run metrics records of
random seeds 0-11 plus the first 20 systematic runs are hashed: one
sha256 per config and fault setting (none, a spurious-wakeup rate of
0.2, and each registered fault plan).  With the wall-clock readings
(``vm_events_per_second``, ``run_wall_seconds``) removed a record is a
pure function of the schedule run, so any change to how the monitor
series are counted must leave every digest as it is.

Regenerate the pin file (only when a change to the records is
intended, with the reason recorded) with::

    PYTHONPATH=src python tests/obs/test_record_pin.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.run import RunConfig, RunExecutor
from repro.run.registry import COMPONENTS, FAULTS, WORKLOADS, load_builtins

PIN_FILE = Path(__file__).with_name("record_pin.json")

#: record entries whose values are wall-clock readings
WALL_CLOCK = ("vm_events_per_second", "run_wall_seconds")

SEEDS = range(12)
SYSTEMATIC_RUNS = 20

#: template -> the methods its program calls on the component
TEMPLATES = {
    "pc": ("send", "receive"),
    "buffer": ("put", "get"),
    "rw": ("start_read", "end_read", "start_write", "end_write"),
    "sem": ("acquire", "release"),
    "barrier-meet": ("arrive",),
}


def programs():
    """(workload, component) for every directly runnable workload and
    every template paired with each component that has its methods."""
    load_builtins()
    for name, entry in WORKLOADS.items():
        if not getattr(entry, "needs_component", False):
            yield name, None
    for template, methods in TEMPLATES.items():
        for component, cls in COMPONENTS.items():
            if all(callable(getattr(cls, method, None)) for method in methods):
                yield template, component


def fault_settings():
    """(label, RunConfig keyword arguments) of each fault setting."""
    load_builtins()
    yield "none", {}
    yield "spurious-0.2", {"spurious_rate": 0.2}
    for name in FAULTS.names():
        yield name, {"faults": name}


def configs():
    """label -> RunConfig of every pinned config that validates."""
    table = {}
    for workload, component in programs():
        for setting, options in fault_settings():
            config = RunConfig(
                workload=workload, component=component, metrics=True, **options
            )
            try:
                config.validate()
            except ValueError:
                continue
            program = workload if component is None else f"{workload}+{component}"
            table[f"{program}/{setting}"] = config
    return table


def record_digest(config):
    """sha256 of every run's record, wall-clock entries removed, one
    sort-keys JSON line per run: the random seeds, then the systematic
    runs."""
    executor = RunExecutor(config)
    lines = []

    def on_run(run):
        record = dict(executor.summarize(run).metrics)
        for name in WALL_CLOCK:
            record.pop(name, None)
        lines.append(json.dumps(record, sort_keys=True))

    executor.explore("random", seeds=SEEDS, on_run=on_run, keep_runs=False)
    executor.explore(
        "systematic", max_runs=SYSTEMATIC_RUNS, on_run=on_run, keep_runs=False
    )
    executor.release()
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


CONFIGS = configs()


def test_pin_covers_every_config():
    assert sorted(json.loads(PIN_FILE.read_text())) == sorted(CONFIGS)


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_records_match_the_pin(label):
    pinned = json.loads(PIN_FILE.read_text())
    assert record_digest(CONFIGS[label]) == pinned[label]


if __name__ == "__main__":
    digests = {label: record_digest(CONFIGS[label]) for label in sorted(CONFIGS)}
    PIN_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(digests)} configs to {PIN_FILE}", file=sys.stderr)
