"""Tests for CoFG-driven sequence generation and mutants built from site
labels."""

import pytest

from repro.analysis import build_cofg
from repro.classify import FailureClass
from repro.components import BoundedBuffer, ProducerConsumer
from repro.corpus import OPERATORS, mutant, mutation_sites
from repro.testing import (
    CallTemplate,
    annotate_expectations,
    generate_covering_sequence,
    run_sequence,
)
from repro.vm import RunStatus


PC_ALPHABET = [
    CallTemplate("receive"),
    CallTemplate("send", lambda i: (chr(ord("a") + i % 26) * 2,), label="send(2 chars)"),
    CallTemplate("send", lambda i: (chr(ord("A") + i % 26),), label="send(1 char)"),
]


class TestGenerator:
    def test_generates_nonempty_sequence(self):
        result = generate_covering_sequence(
            ProducerConsumer, PC_ALPHABET, max_length=8
        )
        assert result.sequence.calls
        assert result.covered > 0
        assert result.evaluations >= len(result.sequence.calls)

    def test_coverage_improves_over_single_call(self):
        result = generate_covering_sequence(
            ProducerConsumer, PC_ALPHABET, max_length=10, patience=3
        )
        assert result.covered >= 6

    def test_describe(self):
        result = generate_covering_sequence(
            ProducerConsumer, PC_ALPHABET, max_length=4
        )
        assert "generated" in result.describe()

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValueError):
            generate_covering_sequence(ProducerConsumer, [])

    def test_each_call_its_own_thread(self):
        result = generate_covering_sequence(
            ProducerConsumer, PC_ALPHABET, max_length=5
        )
        threads = [c.thread for c in result.sequence.calls]
        assert len(threads) == len(set(threads))


class TestAnnotation:
    def _golden(self):
        from repro.testing import TestSequence

        seq = (
            TestSequence("golden")
            .add(1, "c1", "receive", check_completion=False)
            .add(2, "p1", "send", "ab", check_completion=False)
            .add(3, "c2", "receive", check_completion=False)
        )
        outcome = run_sequence(ProducerConsumer, seq)
        return outcome, annotate_expectations(outcome)

    def test_completion_clocks_recorded(self):
        _, golden = self._golden()
        by_thread = {c.thread: c for c in golden.calls}
        assert by_thread["c1"].expect_at == 2  # released by the send at 2
        assert by_thread["p1"].expect_at == 2
        assert by_thread["c2"].expect_at == 3

    def test_returns_recorded(self):
        _, golden = self._golden()
        by_thread = {c.thread: c for c in golden.calls}
        assert by_thread["c1"].expect_returns == "a"
        assert by_thread["c2"].expect_returns == "b"

    def test_golden_passes_on_correct_component(self):
        _, golden = self._golden()
        assert run_sequence(ProducerConsumer, golden).passed

    def test_returns_can_be_skipped(self):
        outcome, _ = self._golden()
        golden = annotate_expectations(outcome, expect_returns=False)
        from repro.detect.completion import UNSET

        assert all(c.expect_returns is UNSET for c in golden.calls)

    def test_never_annotated_for_hanging_call(self):
        from repro.testing import TestSequence

        seq = TestSequence("hang").add(1, "c", "receive", check_completion=False)
        outcome = run_sequence(ProducerConsumer, seq)
        golden = annotate_expectations(outcome)
        assert golden.calls[0].expect_never


def operators_on(cls, method_name):
    return {s.operator for s in mutation_sites(cls) if s.method == method_name}


class TestMutationEngine:
    def test_operators_for_receive(self):
        names = operators_on(ProducerConsumer, "receive")
        assert {"wait_if", "drop_notify", "drop_wait", "wait_spin"} <= names
        assert "unsync" not in names  # has a wait: dropping sync would crash

    def test_unsync_applicable_without_wait(self):
        assert "unsync" in operators_on(BoundedBuffer, "size")

    def test_mutant_class_name(self):
        mutated = mutant(ProducerConsumer, "drop_notify@send#0")
        assert mutated.__name__ == "ProducerConsumer__drop_notify_send_0"
        assert mutated.__corpus_variant__ == "ProducerConsumer~drop_notify@send#0"

    def test_mutant_cofg_buildable(self):
        mutated = mutant(ProducerConsumer, "drop_notify@send#0")
        cofg = build_cofg(mutated, "send")
        # notifyAll nodes are gone from the mutated method
        assert not cofg.notify_nodes()

    def test_wait_if_changes_cofg(self):
        mutated = mutant(ProducerConsumer, "wait_if@receive#0")
        cofg = build_cofg(mutated, "receive")
        arcs = {(a.src.kind.value, a.dst.kind.value) for a in cofg.arcs}
        assert ("wait", "wait") not in arcs  # no loop anymore

    def test_drop_wait(self):
        mutated = mutant(ProducerConsumer, "drop_wait@receive#0")
        cofg = build_cofg(mutated, "receive")
        assert not cofg.wait_nodes()

    def test_expected_classes(self):
        assert OPERATORS["drop_notify"].expected == (FailureClass.FF_T5.code,)
        assert OPERATORS["notify_single"].expected == (FailureClass.FF_T5.code,)
        assert OPERATORS["wait_if"].expected == (FailureClass.EF_T5.code,)
        assert OPERATORS["wait_spin"].expected == (FailureClass.FF_T4.code,)
        assert OPERATORS["drop_wait"].expected == (FailureClass.FF_T3.code,)
        assert OPERATORS["unsync"].expected == (FailureClass.FF_T1.code,)
        assert OPERATORS["extra_wait"].expected == (FailureClass.EF_T3.code,)


class TestMutantBehaviour:
    """Each mutant misbehaves in the way its failure class predicts."""

    def _golden(self):
        from repro.testing import TestSequence

        seq = (
            TestSequence("golden")
            .add(1, "c1", "receive", check_completion=False)
            .add(2, "c2", "receive", check_completion=False)
            .add(3, "p1", "send", "ab", check_completion=False)
            .add(4, "p2", "send", "c", check_completion=False)
            .add(5, "c3", "receive", check_completion=False)
        )
        outcome = run_sequence(ProducerConsumer, seq)
        return annotate_expectations(outcome)

    def test_drop_notify_kills(self):
        golden = self._golden()
        outcome = run_sequence(mutant(ProducerConsumer, "drop_notify@send#0"), golden)
        assert not outcome.passed

    def test_drop_wait_kills(self):
        golden = self._golden()
        outcome = run_sequence(mutant(ProducerConsumer, "drop_wait@receive#0"), golden)
        assert not outcome.passed

    def test_wait_spin_hits_step_limit(self):
        golden = self._golden()
        outcome = run_sequence(mutant(ProducerConsumer, "wait_spin@receive#0"), golden)
        assert outcome.result.status is RunStatus.STEP_LIMIT
        assert not outcome.passed

    def test_golden_still_passes_unmutated(self):
        golden = self._golden()
        assert run_sequence(ProducerConsumer, golden).passed
