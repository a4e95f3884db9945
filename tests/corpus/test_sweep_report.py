"""Tests for corpus sweeps and the detection-rate report."""

import json

import pytest

from repro.corpus import (
    SWEEP_DETECTORS,
    CorpusError,
    SweepResult,
    build_report,
    generate_corpus,
    load_corpus,
    read_results,
    sweep_corpus,
    write_results,
)
from repro.run.config import DETECTOR_ORDER


def result(variant_id, expected=(), detected=(), parent="P", **kw):
    defaults = dict(
        parent=parent,
        operators=tuple(kw.pop("operators", ())),
        expected=tuple(expected),
        detected=tuple(detected),
        class_counts=kw.pop("class_counts", {c: 1 for c in detected}),
        static_classes=tuple(kw.pop("static_classes", ())),
        runs=kw.pop("runs", 4),
        failures=kw.pop("failures", len(detected)),
        statuses=kw.pop("statuses", {"completed": 4}),
    )
    return SweepResult(variant_id=variant_id, **defaults)


class TestReportMath:
    def test_class_stats(self):
        results = [
            result("P~a", expected=("FF-T5",), detected=("FF-T5",)),
            result("P~b", expected=("FF-T5",), detected=()),
            result("P~baseline", expected=(), detected=("FF-T5",)),
        ]
        report = build_report(results)
        stats = report.stats["FF-T5"]
        assert (stats.tp, stats.fn, stats.fp) == (1, 1, 1)
        assert stats.precision == 0.5 and stats.recall == 0.5

    def test_perfect_defaults(self):
        from repro.corpus.report import ClassStats

        empty = ClassStats("EF-T1", tp=0, fn=0, fp=0)
        assert empty.precision == 1.0 and empty.recall == 1.0

    def test_catch_and_controls(self):
        results = [
            result("P~a", expected=("EF-T5",), detected=("EF-T5", "FF-T5")),
            result("P~b", expected=("EF-T5",), detected=("FF-T1",)),
            result("P~baseline"),
            result("P~dup", detected=("FF-T1",)),
        ]
        report = build_report(results)
        assert [r.variant_id for r in report.caught] == ["P~a"]
        assert [r.variant_id for r in report.missed] == ["P~b"]
        assert [r.variant_id for r in report.noisy_controls] == ["P~dup"]
        assert report.catch_rate() == 0.5

    def test_confusion_rows(self):
        results = [
            result("P~a", expected=("EF-T5",), detected=("EF-T5",)),
            result("P~b", expected=("EF-T5",), detected=()),
            result("P~baseline"),
        ]
        report = build_report(results)
        assert report.confusion["EF-T5"] == {"EF-T5": 1, "(clean)": 1}
        assert report.confusion["control"] == {"(clean)": 1}

    def test_describe_and_to_dict(self):
        results = [
            result("P~a", expected=("FF-T5",), detected=("FF-T5",)),
            result("P~baseline"),
        ]
        report = build_report(results)
        text = report.describe()
        assert "corpus report: 2 variants (1 faulty, 1 controls)" in text
        assert "caught: 1/1" in text
        assert "controls: all clean" in text
        data = report.to_dict()
        assert data["catch_rate"] == 1.0
        assert data["classes"]["FF-T5"] == {
            "tp": 1,
            "fn": 0,
            "fp": 0,
            "precision": 1.0,
            "recall": 1.0,
        }
        assert json.dumps(data, sort_keys=True)  # JSON-serializable


class TestResultsFile:
    def test_roundtrip(self, tmp_path):
        results = [
            result("P~a", expected=("FF-T5",), detected=("FF-T5",)),
            result("P~baseline"),
        ]
        path = str(tmp_path / "results.jsonl")
        write_results(results, path, seeds=4)
        assert read_results(path) == results
        header = json.loads(open(path).readline())
        assert header == {
            "schema": "repro-corpus-results",
            "seeds": 4,
            "variants": 2,
            "version": 1,
        }

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text(json.dumps({"schema": "repro-corpus-manifest"}) + "\n")
        with pytest.raises(CorpusError, match="not a corpus results file"):
            read_results(str(path))


@pytest.fixture(scope="module")
def subset():
    """A small labeled slice of the BoundedBuffer corpus: the baseline
    control, one EF-T5 mutant per method, and the statically-caught
    unsync mutant — enough to exercise dynamic and static evidence."""
    wanted = (
        (),
        ("wait_if@put#0",),
        ("wait_if@get#0",),
        ("unsync@size#0",),
    )
    records = [
        r for r in generate_corpus(["bounded_buffer"]) if r.operators in wanted
    ]
    assert len(records) == len(wanted)
    load_corpus(records)
    return records


class TestSweepEndToEnd:
    SEEDS = 10

    def test_sweep_detects_and_resumes_byte_identically(self, subset, tmp_path):
        progress = []
        full = sweep_corpus(
            subset,
            str(tmp_path / "full"),
            seeds=self.SEEDS,
            on_variant=progress.append,
        )
        assert [r.variant_id for r in full] == [r.variant_id for r in subset]
        assert progress == full

        by_ops = {r.operators: r for r in full}
        baseline = by_ops[()]
        assert baseline.is_control and not baseline.detected
        assert baseline.runs == self.SEEDS
        for ops in (("wait_if@put#0",), ("wait_if@get#0",)):
            assert by_ops[ops].caught, f"{ops}: detected {by_ops[ops].detected}"
            assert "EF-T5" in by_ops[ops].detected
        unsync = by_ops[("unsync@size#0",)]
        assert "FF-T1" in unsync.static_classes
        assert unsync.caught

        results_path = str(tmp_path / "full" / "results.jsonl")
        write_results(full, results_path, seeds=self.SEEDS)

        # Interrupt-and-resume: journal only the first two variants, then
        # resume over the whole corpus — the final results file must be
        # byte-identical to the uninterrupted sweep's.
        resumed_dir = str(tmp_path / "resumed")
        sweep_corpus(subset[:2], resumed_dir, seeds=self.SEEDS)
        resumed = sweep_corpus(
            subset, resumed_dir, seeds=self.SEEDS, resume=True
        )
        resumed_path = str(tmp_path / "resumed" / "results.jsonl")
        write_results(resumed, resumed_path, seeds=self.SEEDS)
        assert (
            open(resumed_path, "rb").read() == open(results_path, "rb").read()
        )

        report = build_report(full)
        assert report.catch_rate() == 1.0
        assert not report.noisy_controls
        assert report.stats["EF-T5"].recall == 1.0

    def test_sweep_detector_set_includes_reentry(self):
        assert "reentry" in SWEEP_DETECTORS
        assert (
            len(SWEEP_DETECTORS) == len(set(SWEEP_DETECTORS)) == len(DETECTOR_ORDER) + 1
        )
