"""The paper's Section-6 method, end to end, on the Figure-2 monitor.

1. Build the CoFGs of ``receive`` and ``send`` by static analysis.
2. Construct a clocked test sequence that covers every CoFG arc.
3. Run it deterministically and measure arc coverage.
4. Derive the golden completion-time oracle from the correct run.
5. Replay the oracle against seeded mutants: every one is killed, with
   the violation symptoms pointing at the right Table-1 failure class.

Run:  python examples/producer_consumer_testing.py
"""

from repro.analysis import build_all_cofgs, cofg_to_dot
from repro.components import ProducerConsumer
from repro.corpus import mutant
from repro.report import render_figure3
from repro.testing import TestSequence, annotate_expectations, run_sequence


def covering_sequence() -> TestSequence:
    """Section 6.1: calls that drive both methods through all five arcs.

    The comments give the arc each step is aimed at."""
    return (
        TestSequence("pc-covering")
        .add(1, "c1", "receive", check_completion=False)  # start->wait
        .add(2, "c2", "receive", check_completion=False)  # 2nd waiter
        .add(3, "p1", "send", "a", check_completion=False)
        # ^ start->notifyAll for send; wakes both consumers: one takes
        #   'a' (wait->notifyAll), the other re-waits (wait->wait)
        .add(4, "p2", "send", "bcd", check_completion=False)
        .add(5, "p3", "send", "e", check_completion=False)  # send start->wait
        .add(6, "c3", "receive", check_completion=False)
        # ^ drains one char of "bcd": wakes p3 whose guard still holds:
        #   send wait->wait
        .add(7, "c4", "receive", check_completion=False)
        .add(8, "c5", "receive", check_completion=False)
        .add(9, "c6", "receive", check_completion=False)
    )


def main():
    # -- step 1: the CoFGs (paper Figure 3) --------------------------------
    print(render_figure3())
    cofgs = build_all_cofgs(ProducerConsumer)
    print("\nGraphviz DOT of the receive CoFG (paste into `dot -Tpng`):\n")
    print(cofg_to_dot(cofgs["receive"]))

    # -- steps 2-3: run the covering sequence ------------------------------
    sequence = covering_sequence()
    outcome = run_sequence(ProducerConsumer, sequence)
    print("\n" + sequence.describe())
    print("\n" + outcome.coverage.describe())
    assert outcome.coverage.is_complete()

    # -- step 4: derive the golden oracle ----------------------------------
    golden = annotate_expectations(outcome)
    print("\ngolden oracle (observed completion clocks + return values):")
    print(golden.describe())
    assert run_sequence(ProducerConsumer, golden).passed
    print("\ngolden replay on the correct component: PASS")

    # -- step 5: kill the mutants ------------------------------------------
    mutants = [
        ("drop_notify@send#0", "FF-T5: send never notifies"),
        ("drop_wait@receive#0", "FF-T3: receive never waits"),
        ("wait_if@receive#0", "EF-T5: guard not re-checked"),
        ("wait_spin@send#0", "FF-T4: busy-wait holding the lock"),
    ]
    print("\nmutation study:")
    for label, description in mutants:
        result = run_sequence(mutant(ProducerConsumer, label), golden)
        verdict = "KILLED" if not result.passed else "SURVIVED"
        print(f"  {label:>20} ({description}): {verdict}")
        for violation in result.violations[:2]:
            print(f"      {violation}")
        assert not result.passed


if __name__ == "__main__":
    main()
