"""Pinned lock-order cycles over the batch==online workloads.

``detect_lock_cycles`` reports each simple cycle of the lock-order graph
as a :class:`PotentialDeadlock`: its ``locks`` in ring order and one
witness ``(outer, inner, thread, seq)`` per step.  This file pins that
output, run by run, for every workload of the equivalence suite under
systematic and random scheduling, so a change to the cycle enumeration
cannot move a cycle, a witness or their order unnoticed.  The pin is
exact: each ring starts at its least lock name whatever the string hash
seed of the process.

Regenerate the pin with ``PYTHONPATH=src python -m
tests.detect.test_lock_cycle_pin``, and only for a reason stated in the
change that does it.
"""

import json
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detect import detect_lock_cycles
from repro.detect.lockgraph import simple_cycles
from repro.testing import explore_random, explore_systematic
from tests.detect.test_online_equivalence import FACTORIES

PIN = Path(__file__).with_name("lock_cycles_pin.json")


def cycles_of(trace):
    """``detect_lock_cycles`` output as JSON-comparable lists."""
    return [
        [list(c.locks), [[w.outer, w.inner, w.thread, w.seq] for w in c.witnesses]]
        for c in detect_lock_cycles(trace)
    ]


def record(name):
    runs = {"systematic": [], "random": []}
    explore_systematic(
        FACTORIES[name],
        max_runs=15,
        on_run=lambda run: runs["systematic"].append(cycles_of(run.result.trace)),
        keep_runs=False,
    )
    explore_random(
        FACTORIES[name],
        seeds=range(8),
        on_run=lambda run: runs["random"].append(cycles_of(run.result.trace)),
        keep_runs=False,
    )
    return runs


def test_pin_covers_every_workload():
    pinned = json.loads(PIN.read_text())
    assert sorted(pinned) == sorted(FACTORIES)
    assert {"deadlock-pair", "mixed-deadlock"} <= set(pinned)
    with_cycles = {
        name
        for name, runs in pinned.items()
        if any(run for mode in runs.values() for run in mode)
    }
    assert {"deadlock-pair", "mixed-deadlock", "racing-locks"} <= with_cycles


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_lock_cycles_match_pin(name):
    expected = json.loads(PIN.read_text())[name]
    actual = record(name)
    for mode in ("systematic", "random"):
        assert actual[mode] == expected[mode], mode


if __name__ == "__main__":
    pin = {name: record(name) for name in sorted(FACTORIES)}
    # one line per workload and mode keeps the pin's diffs readable
    PIN.write_text(
        "{\n"
        + ",\n".join(
            f" {json.dumps(name)}: {{\n"
            + ",\n".join(
                f"  {json.dumps(mode)}: {json.dumps(runs[mode])}" for mode in sorted(runs)
            )
            + "\n }"
            for name, runs in pin.items()
        )
        + "\n}\n"
    )


def brute_force_cycles(edges):
    """Every simple cycle of a small digraph, by trying each permutation
    of each node subset that starts at the subset's least node."""
    nodes = sorted({n for edge in edges for n in edge})
    found = set()
    for size in range(2, len(nodes) + 1):
        for subset in combinations(nodes, size):
            for rest in permutations(subset[1:]):
                ring = (subset[0],) + rest
                if all(
                    (ring[i], ring[(i + 1) % size]) in edges for i in range(size)
                ):
                    found.add(ring)
    return found


small_digraphs = st.sets(
    st.tuples(st.sampled_from("abcdef"), st.sampled_from("abcdef")), max_size=14
)


@settings(max_examples=300, deadline=None)
@given(edges=small_digraphs, order=st.randoms(use_true_random=False))
def test_simple_cycles_match_brute_force(edges, order):
    """Each simple cycle once, rooted at its least node, whatever order
    the edges arrive in (self-loops are not lock-order cycles)."""
    listed = sorted(edges)
    order.shuffle(listed)
    cycles = list(simple_cycles(listed))
    assert len(cycles) == len(set(cycles))
    assert set(cycles) == brute_force_cycles({e for e in edges if e[0] != e[1]})
    assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)
