"""Tests for the regression-suite manager and the systematic_test facade."""

import pytest

from repro.components import BoundedBuffer, ProducerConsumer
from repro.components.faulty import NoNotifyProducerConsumer
from repro.corpus import mutant
from repro.method import systematic_test
from repro.testing import CallTemplate, RegressionSuite, TestSequence


def pc_cover_sequence():
    return (
        TestSequence("pc-covering")
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


class TestRegressionSuite:
    def test_build_annotates(self):
        suite = RegressionSuite.build(ProducerConsumer, [pc_cover_sequence()])
        assert suite.component_name == "ProducerConsumer"
        calls = suite.sequences[0].calls
        assert all(
            c.expect_never or c.expect_at is not None for c in calls
        )

    def test_run_passes_on_correct(self):
        suite = RegressionSuite.build(ProducerConsumer, [pc_cover_sequence()])
        report = suite.run(ProducerConsumer)
        assert report.passed
        assert report.n_sequences == 1
        assert report.total_coverage() == 1.0
        assert "PASS" in report.describe()

    def test_run_fails_on_mutant(self):
        suite = RegressionSuite.build(ProducerConsumer, [pc_cover_sequence()])
        report = suite.run(mutant(ProducerConsumer, "drop_notify@send#0"))
        assert not report.passed
        assert report.failures()
        assert "FAIL" in report.describe()

    def test_run_fails_on_seeded_faulty(self):
        suite = RegressionSuite.build(ProducerConsumer, [pc_cover_sequence()])
        report = suite.run(NoNotifyProducerConsumer)
        assert not report.passed

    def test_json_roundtrip(self):
        suite = RegressionSuite.build(ProducerConsumer, [pc_cover_sequence()])
        restored = RegressionSuite.from_json(suite.to_json())
        assert restored.component_name == suite.component_name
        assert restored.sequences[0].calls == suite.sequences[0].calls

    def test_file_roundtrip(self, tmp_path):
        suite = RegressionSuite.build(ProducerConsumer, [pc_cover_sequence()])
        path = tmp_path / "suite.json"
        suite.save(path)
        restored = RegressionSuite.load(path)
        assert restored.run(ProducerConsumer).passed

    def test_bad_json_rejected(self):
        with pytest.raises(ValueError):
            RegressionSuite.from_json('{"format": "other"}')

    def test_multiple_sequences(self):
        small = TestSequence("small").add(
            1, "p", "send", "x", check_completion=False
        ).add(2, "c", "receive", check_completion=False)
        suite = RegressionSuite.build(
            ProducerConsumer, [pc_cover_sequence(), small]
        )
        report = suite.run(ProducerConsumer)
        assert report.passed and report.n_sequences == 2


class TestSystematicTest:
    def test_requires_input(self):
        with pytest.raises(ValueError):
            systematic_test(ProducerConsumer)

    def test_manual_sequences_full_pipeline(self):
        report = systematic_test(ProducerConsumer, sequences=[pc_cover_sequence()])
        assert report.passed
        assert report.coverage_fraction == 1.0
        assert set(report.cofgs) == {"receive", "send"}
        assert report.metrics.total_arcs == 10
        assert not report.generated
        assert "PASS" in report.describe()

    def test_generated_alphabet(self):
        report = systematic_test(
            lambda: BoundedBuffer(2),
            alphabet=[
                CallTemplate("put", lambda i: (i,)),
                CallTemplate("get"),
            ],
            max_generated_length=10,
        )
        assert report.generated
        assert report.suite_report.passed
        assert report.coverage_fraction > 0.5

    def test_static_findings_fail_the_method(self):
        from repro.components.faulty import UnsyncCounter

        report = systematic_test(
            UnsyncCounter,
            sequences=[
                TestSequence("inc").add(
                    1, "t", "increment", check_completion=False
                )
            ],
        )
        assert report.static_findings
        assert not report.passed

    def test_suite_reusable_against_mutants(self):
        report = systematic_test(ProducerConsumer, sequences=[pc_cover_sequence()])
        mutated = mutant(ProducerConsumer, "drop_notify@receive#0")
        assert not report.suite.run(mutated).passed
