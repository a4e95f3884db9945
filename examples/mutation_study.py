"""Mutation study: which detector catches which Table-1 failure class?

Applies every mutation site of every operator on the methods of the
producer-consumer and bounded-buffer monitors, replays a golden covering
sequence against each mutant, and reports the kill matrix together with
the failure classes the violations were diagnosed as.  ``dup_notify``
is the control: it seeds nothing and should survive.

Run:  python examples/mutation_study.py
"""

from repro.components import BoundedBuffer, ProducerConsumer
from repro.corpus import OPERATORS, mutant, mutation_sites
from repro.report import render_table
from repro.testing import TestSequence, annotate_expectations, run_sequence


def pc_covering():
    return (
        TestSequence("pc")
        .add(1, "c1", "receive", check_completion=False)
        .add(2, "c2", "receive", check_completion=False)
        .add(3, "p1", "send", "a", check_completion=False)
        .add(4, "p2", "send", "bcd", check_completion=False)
        .add(5, "p3", "send", "e", check_completion=False)
        .add(6, "c3", "receive", check_completion=False)
        .add(7, "c4", "receive", check_completion=False)
        .add(8, "c5", "receive", check_completion=False)
        .add(9, "c6", "receive", check_completion=False)
    )


def bb_covering():
    return (
        TestSequence("bb")
        .add(1, "c1", "get", check_completion=False)
        .add(2, "c2", "get", check_completion=False)
        .add(3, "p1", "put", 1, check_completion=False)
        .add(4, "p2", "put", 2, check_completion=False)
        .add(5, "p3", "put", 3, check_completion=False)
        .add(6, "p4", "put", 4, check_completion=False)
        .add(7, "p5", "put", 5, check_completion=False)
        .add(8, "p6", "put", 6, check_completion=False)
        .add(9, "c3", "get", check_completion=False)
        .add(10, "c4", "get", check_completion=False)
    )


def study(component_label, factory, cls, sequence, methods):
    golden = annotate_expectations(run_sequence(factory, sequence))
    assert run_sequence(factory, golden).passed

    rows = []
    killed = total = 0
    for site in mutation_sites(cls):
        if site.method not in methods:
            continue
        mutant_cls = mutant(cls, site.label)
        if cls is BoundedBuffer:
            outcome = run_sequence(lambda: mutant_cls(2), golden)
        else:
            outcome = run_sequence(mutant_cls, golden)
        dead = not outcome.passed
        total += 1
        killed += dead
        classes = sorted({c.code for c in outcome.report.classes_detected()})
        rows.append(
            (
                site.method,
                site.operator,
                ", ".join(OPERATORS[site.operator].expected) or "-",
                "KILLED" if dead else "survived",
                str(len(outcome.violations)),
                ", ".join(classes) or "-",
            )
        )
    print(
        render_table(
            ("method", "operator", "seeds", "verdict", "violations", "diagnosed as"),
            rows,
            widths=(8, 18, 6, 8, 10, 22),
            title=f"{component_label}: mutation kill matrix "
            f"({killed}/{total} killed)",
        )
    )
    print()
    return killed, total


def main():
    pc_killed, pc_total = study(
        "ProducerConsumer",
        ProducerConsumer,
        ProducerConsumer,
        pc_covering(),
        ["receive", "send"],
    )
    bb_killed, bb_total = study(
        "BoundedBuffer(2)",
        lambda: BoundedBuffer(2),
        BoundedBuffer,
        bb_covering(),
        ["put", "get"],
    )
    print(
        f"overall mutation score: "
        f"{pc_killed + bb_killed}/{pc_total + bb_total} with one golden "
        f"covering sequence per component"
    )


if __name__ == "__main__":
    main()
