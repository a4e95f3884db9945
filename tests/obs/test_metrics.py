"""Metrics registry: families, label series, document round trip."""

import json
import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_and_get(self):
        c = Counter("runs_total")
        c.inc()
        c.inc(4, status="stuck")
        assert c.get() == 1
        assert c.get(status="stuck") == 4
        assert c.total == 5

    def test_labels_normalized_order_insensitive(self):
        c = Counter("x")
        c.inc(1, a="1", b="2")
        c.inc(2, b="2", a="1")
        assert c.get(a="1", b="2") == 3

    def test_label_values_coerced_to_str(self):
        c = Counter("x")
        c.inc(1, seed=7)
        assert c.get(seed="7") == 1

    def test_top(self):
        c = Counter("x")
        c.inc(5, monitor="a")
        c.inc(9, monitor="b")
        c.inc(1, monitor="c")
        assert c.top(2, label="monitor") == [("b", 9), ("a", 5)]


class TestGauge:
    def test_set(self):
        g = Gauge("depth")
        g.set(3)
        assert g.get() == 3
        g.set(1)
        assert g.get() == 1

    def test_missing_series_is_none(self):
        assert Gauge("depth").get(monitor="m") is None

    @pytest.mark.parametrize("agg", ["max", "last"])
    def test_agg_travels_with_the_document(self, agg):
        assert Gauge("g", agg=agg).to_dict()["agg"] == agg

    @pytest.mark.parametrize("agg", ["median", "min", "sum"])
    def test_bad_agg_rejected(self, agg):
        with pytest.raises(ValueError, match="agg"):
            Gauge("g", agg=agg)


class TestHistogram:
    def test_observe_and_stats(self):
        h = Histogram("d", buckets=(1, 10, 100))
        h.observe(0.5)
        h.observe(5)
        h.observe(500)
        assert h.count() == 3
        assert h.total() == 505.5

    def test_bucket_assignment(self):
        h = Histogram("d", buckets=(1, 10))
        h.observe(1)   # le=1 bucket (bisect_left: boundary goes low)
        h.observe(2)   # le=10
        h.observe(11)  # +Inf
        (series,) = h.series().values()
        assert series.counts == [1, 1, 1]

    def test_needs_buckets(self):
        with pytest.raises(ValueError, match="bucket"):
            Histogram("d", buckets=())


class TestRegistry:
    def test_get_or_create_idempotent(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert len(r) == 1

    def test_kind_mismatch_rejected(self):
        r = MetricsRegistry()
        r.counter("a")
        with pytest.raises(ValueError, match="already registered"):
            r.gauge("a")

    def test_add_replaces_the_named_metric(self):
        r = MetricsRegistry()
        r.counter("a").inc(3)
        replacement = Gauge("a")
        r.add(replacement)
        assert r.get("a") is replacement
        assert len(r) == 1


class TestDocument:
    def _populated(self) -> MetricsRegistry:
        r = MetricsRegistry()
        r.counter("c", "help c").inc(2, k="v")
        r.gauge("g", "help g", agg="last").set(1.5)
        r.histogram("h", "help h", buckets=(1, 10)).observe(4)
        return r

    def test_round_trip_via_dict(self):
        r = self._populated()
        restored = MetricsRegistry.from_dict(r.to_dict())
        assert restored.to_dict() == r.to_dict()
        assert restored.gauge("g").agg == "last"
        assert restored.histogram("h").buckets == (1, 10)

    def test_document_is_picklable_and_plain(self):
        document = self._populated().to_dict()
        assert pickle.loads(pickle.dumps(document)) == document
        assert json.loads(json.dumps(document)) == document

    def test_round_trip_copies(self):
        r = self._populated()
        restored = MetricsRegistry.from_dict(r.to_dict())
        r.counter("c").inc(10, k="v")
        assert restored.counter("c").get(k="v") == 2  # not aliased to r's

    def test_histogram_counts_must_fill_every_bucket(self):
        document = self._populated().to_dict()
        (histogram,) = [m for m in document["metrics"] if m["name"] == "h"]
        histogram["series"][0]["counts"] = [1]  # buckets (1, 10) need 3
        with pytest.raises(ValueError, match="1 counts for 2 bucket bounds"):
            MetricsRegistry.from_dict(document)

    def test_unknown_metric_type_rejected(self):
        document = {"metrics": [{"name": "s", "type": "summary", "series": []}]}
        with pytest.raises(ValueError, match="unknown metric type 'summary' for 's'"):
            MetricsRegistry.from_dict(document)


class TestKindMismatchOnMerge:

    def test_journal_round_trip_raises(self):
        """A metrics record read back from a journal line (as ``--resume``
        does) folds through the same checks: a name the campaign registry
        holds as another kind, or a name outside the record schema."""
        from repro.engine.progress import ProgressTracker
        from repro.testing.explorer import RunSummary

        def restored(index, record):
            summary = RunSummary(
                index=index, status="completed", decisions=(index,), metrics=record
            )
            return RunSummary.from_dict(json.loads(json.dumps(summary.to_dict())))

        tracker = ProgressTracker()
        tracker.note_run(restored(0, {"vm_steps_total": 1}))
        tracker.metrics.gauge("vm_events_total").set(5)
        with pytest.raises(ValueError, match="already registered as gauge"):
            tracker.note_run(restored(1, {"vm_events_total": 7}))
        with pytest.raises(ValueError, match="unknown metric 'x'"):
            tracker.note_run(restored(2, {"x": 1}))
        assert tracker.metrics.counter("vm_steps_total").total == 1
        assert tracker.metrics.gauge("vm_events_total").get() == 5

    def test_raises_with_assertions_disabled(self):
        """The check is not an ``assert``: ``python -O`` still raises."""
        code = (
            "from repro.obs.metrics import MetricsRegistry\n"
            "from repro.obs.sink import fold_record\n"
            "theirs = MetricsRegistry()\n"
            "theirs.gauge('vm_steps_total').set(5)\n"
            "try:\n"
            "    fold_record(theirs, {'vm_steps_total': 1})\n"
            "except ValueError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(f'folded: {theirs.to_dict()}')\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stdout + done.stderr
