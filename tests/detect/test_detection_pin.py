"""Pinned detection output, run by run, the way campaigns detect.

Campaign workers stream every run through the registry's detectors with
early abort on, so a deadlocking run ends on the event that closes its
wait-for cycle.  This file pins, for every workload of the batch==online
suite under 40 random seeds and 30 systematic schedules, each run's
``(status, steps, decisions, DetectionSummary.to_dict())``: a change to
any detector's fold, to the abort step of a deadlock or to the routing
of events moves a digest.  The byte-identity tables check a few
schedules per workload; this checks 70.

Regenerate the pin with ``PYTHONPATH=src python -m
tests.detect.test_detection_pin``, and only for a reason stated in the
change that does it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.detect.online import DetectorPipeline
from repro.engine.workloads import WORKLOADS
from repro.run.config import DETECTOR_ORDER
from repro.run.registry import DETECTORS, load_builtins
from repro.testing import explore_random, explore_systematic
from tests.detect.test_online_equivalence import FACTORIES

PIN = Path(__file__).with_name("detection_pin.json")

NAMES = sorted(set(WORKLOADS) | set(FACTORIES))
SEEDS = range(40)
SYSTEMATIC_RUNS = 30


def _factory(name):
    return FACTORIES[name] if name in FACTORIES else WORKLOADS[name]


def record(name):
    """Per mode: the run count, the aborted-run count and the sha256 over
    every run's record, in exploration order."""
    load_builtins()
    # the executor's pipeline: every built-in detector, early abort on
    pipeline = DetectorPipeline([DETECTORS.get(n)() for n in DETECTOR_ORDER])
    factory = _factory(name)

    def build(scheduler):
        kernel = factory(scheduler)
        kernel.trace_mode = "none"
        pipeline.reset().attach(kernel)
        return kernel

    pinned = {}
    for mode in ("random", "systematic"):
        digest = hashlib.sha256()
        counts = {"runs": 0, "aborted": 0}

        def on_run(run):
            result = run.result
            summary = pipeline.summary(result).to_dict()
            line = json.dumps(
                [result.status.value, result.steps, list(run.decisions), summary],
                sort_keys=True,
            )
            digest.update(line.encode("utf-8") + b"\n")
            counts["runs"] += 1
            counts["aborted"] += summary["aborted"] is not None

        if mode == "random":
            explore_random(build, seeds=SEEDS, on_run=on_run, keep_runs=False)
        else:
            explore_systematic(
                build, max_runs=SYSTEMATIC_RUNS, on_run=on_run, keep_runs=False
            )
        pinned[mode] = {**counts, "sha256": digest.hexdigest()}
    return pinned


def test_pin_covers_every_workload():
    pinned = json.loads(PIN.read_text())
    assert sorted(pinned) == NAMES
    assert all(pinned[n]["random"]["runs"] == len(SEEDS) for n in NAMES)
    # early abort fires on the deadlocking workloads, so their abort
    # steps are pinned too
    aborting = {
        name
        for name, modes in pinned.items()
        if any(mode["aborted"] for mode in modes.values())
    }
    assert {"deadlock-pair", "mixed-deadlock"} <= aborting


@pytest.mark.parametrize("name", NAMES)
def test_detection_matches_pin(name):
    assert record(name) == json.loads(PIN.read_text())[name]


if __name__ == "__main__":
    PIN.write_text(
        json.dumps({name: record(name) for name in NAMES}, indent=1, sort_keys=True)
        + "\n"
    )
