"""Tests for the completion-time oracle and the starvation analyzer."""

import pytest

from repro.classify import Symptom
from repro.components import ProducerConsumer
from repro.detect import (
    Expectation,
    analyze_starvation,
    check_completion_times,
)
from repro.testing import TestSequence, run_sequence
from repro.vm import (
    Acquire,
    FifoScheduler,
    Interrupt,
    Kernel,
    Notify,
    RandomScheduler,
    Release,
    RoundRobinScheduler,
    SelectionPolicy,
    Wait,
    Yield,
)


def pc_outcome(sequence):
    return run_sequence(ProducerConsumer, sequence)


class TestExpectationModel:
    def test_window_from_at(self):
        assert Expectation("C", "m", at=3).window() == (3, 3)

    def test_window_from_between(self):
        assert Expectation("C", "m", between=(1, 4)).window() == (1, 4)

    def test_no_window(self):
        assert Expectation("C", "m").window() is None

    def test_describe_variants(self):
        assert "never" in Expectation("C", "m", never=True).describe()
        assert "at clock 3" in Expectation("C", "m", at=3).describe()
        assert "[1, 4]" in Expectation("C", "m", between=(1, 4)).describe()
        assert "any time" in Expectation("C", "m").describe()


class TestCompletionChecking:
    def test_on_time_call_passes(self):
        seq = TestSequence("ok").add(
            1, "c", "receive", expect_at=2
        ).add(2, "p", "send", "x", expect_at=2)
        outcome = pc_outcome(seq)
        assert outcome.violations == []

    def test_early_completion_detected(self):
        # claim receive will block until 5; it actually completes at 2
        seq = TestSequence("early").add(
            1, "c", "receive", expect_at=5
        ).add(2, "p", "send", "x", expect_at=2)
        outcome = pc_outcome(seq)
        symptoms = [v.symptom for v in outcome.violations]
        assert Symptom.COMPLETED_EARLY in symptoms

    def test_late_completion_detected(self):
        seq = TestSequence("late").add(
            1, "c", "receive", expect_at=1
        ).add(3, "p", "send", "x", expect_at=3)
        outcome = pc_outcome(seq)
        symptoms = [v.symptom for v in outcome.violations]
        assert Symptom.COMPLETED_LATE in symptoms

    def test_never_violated_by_completion(self):
        seq = TestSequence("never").add(
            1, "c", "receive", expect_never=True
        ).add(2, "p", "send", "x", expect_at=2)
        outcome = pc_outcome(seq)
        assert any(
            v.symptom is Symptom.COMPLETED_EARLY for v in outcome.violations
        )

    def test_never_satisfied_by_hang(self):
        seq = TestSequence("hangs").add(1, "c", "receive", expect_never=True)
        outcome = pc_outcome(seq)
        assert outcome.violations == []

    def test_hang_violates_expected_completion(self):
        seq = TestSequence("hang").add(1, "c", "receive", expect_at=1)
        outcome = pc_outcome(seq)
        assert len(outcome.violations) == 1
        assert outcome.violations[0].symptom is Symptom.PERMANENTLY_WAITING

    def test_missing_call_reported(self):
        violations = check_completion_times(
            pc_outcome(TestSequence("none")).result.trace,
            [Expectation("ProducerConsumer", "receive", at=1)],
        )
        assert violations[0].symptom is Symptom.NEVER_COMPLETES
        assert "never began" in violations[0].detail

    def test_window_accepts_range(self):
        seq = TestSequence("window").add(
            1, "c", "receive", expect_between=(1, 3)
        ).add(2, "p", "send", "x", expect_at=2)
        assert pc_outcome(seq).violations == []

    def test_return_value_checked(self):
        seq = TestSequence("ret").add(
            1, "c", "receive", expect_at=2, expect_returns="y"
        ).add(2, "p", "send", "x", expect_at=2)
        outcome = pc_outcome(seq)
        assert any("returned" in v.detail for v in outcome.violations)

    def test_occurrence_indexing(self):
        seq = (
            TestSequence("occ")
            .add(1, "p", "send", "ab", expect_at=1)
            .add(2, "c", "receive", expect_at=2, expect_returns="a")
            .add(3, "c", "receive", expect_at=3, expect_returns="b")
        )
        assert pc_outcome(seq).violations == []

    def test_check_completion_false_skips(self):
        seq = TestSequence("skip").add(
            1, "c", "receive", check_completion=False
        )
        outcome = pc_outcome(seq)
        assert outcome.violations == []


def starvation_kernel(lock_policy, rounds=6):
    """a-holder repeatedly takes the lock; 'victim' and two 'vips' contend.
    LIFO grants keep bypassing the earliest requester."""
    kernel = Kernel(
        scheduler=RoundRobinScheduler(), lock_policy=lock_policy, max_steps=5000
    )
    kernel.new_monitor("m")

    def requester(name, n):
        for _ in range(n):
            yield Acquire("m")
            yield Yield()
            yield Release("m")

    kernel.spawn(requester, "a", rounds, name="a")
    kernel.spawn(requester, "b", rounds, name="b")
    kernel.spawn(requester, "c", rounds, name="c")
    return kernel


class TestStarvation:
    def test_fifo_has_no_starvation(self):
        kernel = starvation_kernel(SelectionPolicy.FIFO)
        result = kernel.run()
        assert result.ok
        assert analyze_starvation(result.trace) == []

    def test_bypass_counting_with_lifo(self):
        kernel = starvation_kernel(SelectionPolicy.LIFO, rounds=8)
        result = kernel.run()
        reports = analyze_starvation(
            result.trace, bypass_threshold=2, include_resolved=True
        )
        assert any(r.kind == "lock" and r.bypasses > 2 for r in reports)

    def test_notify_starvation(self):
        """Two waiters, notify always picks LIFO: the first waiter is
        bypassed and left waiting at the end."""
        kernel = Kernel(
            scheduler=FifoScheduler(),
            notify_policy=SelectionPolicy.LIFO,
        )
        kernel.new_monitor("m")

        def waiter(name):
            yield Acquire("m")
            yield Wait("m")
            yield Release("m")

        def notifier():
            # only one notify: LIFO wakes the most recent waiter, starving
            # the first
            yield Acquire("m")
            yield Notify("m")
            yield Release("m")

        kernel.spawn(waiter, "w1", name="w1")
        kernel.spawn(waiter, "w2", name="w2")
        kernel.spawn(notifier, name="n")
        result = kernel.run()
        reports = analyze_starvation(result.trace, bypass_threshold=0)
        notify_reports = [r for r in reports if r.kind == "notify"]
        assert len(notify_reports) == 1
        assert notify_reports[0].thread == "w1"
        assert not notify_reports[0].resolved

    def test_report_str(self):
        kernel = starvation_kernel(SelectionPolicy.LIFO, rounds=8)
        reports = analyze_starvation(
            kernel.run().trace, bypass_threshold=2, include_resolved=True
        )
        assert reports and "starvation" in str(reports[0])


def interrupted_acquirer_kernel(scheduler):
    """``t`` blocks acquiring ``m`` behind ``v``; ``i`` interrupts it out
    of the entry set, and ``t`` ends up waiting on ``n`` for good; ``w``
    takes ``m`` later.  Nobody overtakes ``t`` on ``m``: it left."""
    kernel = Kernel(scheduler=scheduler, max_steps=500)
    kernel.new_monitor("m")
    kernel.new_monitor("n")

    def t():
        try:
            yield Acquire("m")
        except InterruptedError:
            yield Acquire("n")
            yield Wait("n")  # never notified
        else:
            yield Release("m")

    def v():
        yield Acquire("m")
        for _ in range(4):
            yield Yield()
        yield Release("m")

    def w():
        for _ in range(6):
            yield Yield()
        yield Acquire("m")
        yield Release("m")

    def i():
        for _ in range(2):
            yield Yield()
        yield Interrupt("t")

    for name, body in (("v", v), ("t", t), ("w", w), ("i", i)):
        kernel.spawn(body, name=name)
    return kernel


def test_interrupted_fresh_acquirer_leaves_the_monitor_queue():
    """MonitorObject.cancel takes an interrupted fresh acquirer out of
    the entry set, so a later grant of that monitor bypasses nobody."""
    interrupted_blocked = 0
    for seed in range(20):
        result = interrupted_acquirer_kernel(RandomScheduler(seed)).run()
        interrupted_blocked += any(
            e.kind.name == "INTERRUPT" and e.detail["thread_state"] == "blocked"
            for e in result.trace
        )
        assert analyze_starvation(result.trace, bypass_threshold=0) == [], seed
    assert interrupted_blocked

