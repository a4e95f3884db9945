"""Metrics registry: families, label series, merge, snapshot round trip."""

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
    MetricsSnapshot,
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

    def test_merge_adds(self):
        a, b = Counter("x"), Counter("x")
        a.inc(2, k="v")
        b.inc(3, k="v")
        b.inc(7, k="w")
        a.merge(b)
        assert a.get(k="v") == 5
        assert a.get(k="w") == 7


class TestGauge:
    def test_set_and_set_max(self):
        g = Gauge("depth")
        g.set(3)
        g.set_max(1)
        assert g.get() == 3
        g.set_max(9)
        assert g.get() == 9

    def test_missing_series_is_none(self):
        assert Gauge("depth").get(monitor="m") is None

    @pytest.mark.parametrize(
        "agg,expected", [("max", 9), ("min", 3), ("sum", 12), ("last", 9)]
    )
    def test_merge_agg_modes(self, agg, expected):
        a, b = Gauge("g", agg=agg), Gauge("g", agg=agg)
        a.set(3)
        b.set(9)
        a.merge(b)
        assert a.get() == expected

    def test_bad_agg_rejected(self):
        with pytest.raises(ValueError, match="agg"):
            Gauge("g", agg="median")


class TestHistogram:
    def test_observe_and_stats(self):
        h = Histogram("d", buckets=(1, 10, 100))
        h.observe(0.5)
        h.observe(5)
        h.observe(500)
        assert h.count() == 3
        assert h.total() == 505.5
        assert h.mean() == pytest.approx(505.5 / 3)

    def test_bucket_assignment(self):
        h = Histogram("d", buckets=(1, 10))
        h.observe(1)   # le=1 bucket (bisect_left: boundary goes low)
        h.observe(2)   # le=10
        h.observe(11)  # +Inf
        (series,) = h.series().values()
        assert series.counts == [1, 1, 1]

    def test_merge(self):
        a, b = Histogram("d", buckets=(1, 10)), Histogram("d", buckets=(1, 10))
        a.observe(0.5)
        b.observe(5)
        a.merge(b)
        assert a.count() == 2

    def test_merge_bucket_mismatch_rejected(self):
        a = Histogram("d", buckets=(1, 10))
        b = Histogram("d", buckets=(1, 100))
        with pytest.raises(ValueError, match="bucket"):
            a.merge(b)

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

    def test_merge_combines_all_kinds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        b.gauge("g").set(5)
        b.histogram("h").observe(3)
        a.merge(b)
        assert a.counter("c").total == 3
        assert a.gauge("g").get() == 5
        assert a.histogram("h").count() == 1

    def test_merge_deep_copies_missing_metrics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("c").inc(1)
        a.merge(b)
        b.counter("c").inc(10)
        assert a.counter("c").total == 1  # not aliased to b's counter

    def test_merge_is_order_independent_for_counters(self):
        parts = []
        for amount in (1, 2, 3):
            r = MetricsRegistry()
            r.counter("c").inc(amount, w=str(amount))
            parts.append(r)
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for p in parts:
            forward.merge(p)
        for p in reversed(parts):
            backward.merge(p)
        assert forward.to_dict() == backward.to_dict()


class TestSnapshot:
    def _populated(self) -> MetricsRegistry:
        r = MetricsRegistry()
        r.counter("c", "help c").inc(2, k="v")
        r.gauge("g", "help g", agg="sum").set(1.5)
        r.histogram("h", "help h", buckets=(1, 10)).observe(4)
        return r

    def test_round_trip_via_dict(self):
        r = self._populated()
        restored = MetricsRegistry.from_dict(r.to_dict())
        assert restored.to_dict() == r.to_dict()
        assert restored.gauge("g").agg == "sum"
        assert restored.histogram("h").buckets == (1, 10)

    def test_snapshot_is_picklable_and_plain(self):
        snap = self._populated().snapshot()
        clone = pickle.loads(pickle.dumps(snap))
        assert clone == snap
        assert MetricsSnapshot.from_dict(snap.to_dict()) == snap

    def test_empty_flag(self):
        assert MetricsSnapshot().empty
        assert not self._populated().snapshot().empty

    def test_merge_snapshot(self):
        r = MetricsRegistry()
        r.merge_snapshot(self._populated().snapshot())
        r.merge_snapshot(self._populated().snapshot())
        assert r.counter("c").get(k="v") == 4
        assert r.gauge("g").get() == 3.0  # agg=sum survives the snapshot


def _mixed_registry() -> MetricsRegistry:
    """A registry with a counter and a histogram, and gauges under every
    aggregation — the base the snapshots below are merged into."""
    r = MetricsRegistry()
    r.counter("c", "help c").inc(2, a="1", b="2")
    r.counter("c").inc(0.5)
    for agg in ("max", "min", "sum", "last"):
        r.gauge(f"g_{agg}", agg=agg).set(3, m="x")
    r.histogram("h", buckets=(1, 10)).observe(4, m="x")
    return r


def _hist_row(labels, counts, total, count):
    return {"labels": labels, "counts": counts, "sum": total, "count": count}


def _mixed_snapshot() -> MetricsSnapshot:
    """Rows for names both already in :func:`_mixed_registry` and new to
    it, label dicts in either key order, label values not yet strings."""
    gauges = [
        {
            "name": f"g_{agg}",
            "type": "gauge",
            "help": "",
            "agg": agg,
            "series": [
                {"labels": {"m": "x"}, "value": 5},
                {"labels": {"m": "y"}, "value": 1.5},
            ],
        }
        for agg in ("max", "min", "sum", "last")
    ]
    return MetricsSnapshot(
        metrics=(
            {
                "name": "c",
                "type": "counter",
                "help": "other help",
                "series": [
                    {"labels": {"b": "2", "a": "1"}, "value": 3},
                    {"labels": {"seed": 7}, "value": 1.25},
                    {"labels": {}, "value": 1},
                ],
            },
            {
                "name": "c_new",
                "type": "counter",
                "help": "fresh",
                "series": [{"labels": {"z": "1", "y": "2"}, "value": 4}],
            },
            *gauges,
            {
                "name": "g_new",
                "type": "gauge",
                "help": "",
                "agg": "min",
                "series": [{"labels": {"m": "x"}, "value": 2}],
            },
            {
                "name": "h",
                "type": "histogram",
                "help": "",
                "buckets": [10, 1],
                "series": [
                    _hist_row({"m": "x"}, [1, 0, 2], 30.5, 3),
                    _hist_row({"m": "y"}, [0, 1, 0], 2.0, 1),
                ],
            },
            {
                "name": "h_new",
                "type": "histogram",
                "help": "",
                "buckets": [5],
                "series": [_hist_row({"q": 1}, [1, 0], 0.5, 1)],
            },
        )
    )


class TestOnePassMerge:
    """``merge_snapshot`` folds rows straight into the series; the
    two-step ``merge(snapshot.to_registry())`` is the reference."""

    @pytest.mark.parametrize("base", [MetricsRegistry, _mixed_registry])
    def test_matches_two_step_merge(self, base):
        one, two = base(), base()
        for _ in range(2):  # the second round finds every name present
            one.merge_snapshot(_mixed_snapshot())
            two.merge(_mixed_snapshot().to_registry())
            assert one.to_dict() == two.to_dict()

    def test_matches_two_step_merge_of_real_snapshots(self):
        one, two = MetricsRegistry(), MetricsRegistry()
        for amount in range(1, 4):
            part = _mixed_registry()
            part.counter("c").inc(amount, a="1", b="2")
            part.gauge("g_max").set(amount, m="x")
            part.histogram("h", buckets=(1, 10)).observe(amount * 4, m="y")
            snapshot = MetricsSnapshot.from_dict(part.snapshot().to_dict())
            one.merge_snapshot(snapshot)
            two.merge(snapshot.to_registry())
        assert one.to_dict() == two.to_dict()

    def test_new_metric_not_aliased_to_snapshot(self):
        snapshot = _mixed_snapshot()
        before = snapshot.to_dict()
        r = MetricsRegistry()
        r.merge_snapshot(snapshot)
        r.merge_snapshot(snapshot)
        assert snapshot.to_dict() == before
        assert r.counter("c_new").get(y="2", z="1") == 8
        assert r.histogram("h_new").count(q="1") == 2

    def test_bucket_mismatch_rejected(self):
        r = MetricsRegistry()
        r.histogram("h", buckets=(1, 2)).observe(1)
        other = MetricsRegistry()
        other.histogram("h", buckets=(1, 3)).observe(1)
        with pytest.raises(ValueError, match="bucket bounds differ"):
            r.merge_snapshot(other.snapshot())


def _counter_then_gauge():
    """A registry whose ``x`` is a counter (1) and one whose ``x`` is a
    gauge (5): merging the second into the first must not yield 6."""
    mine, theirs = MetricsRegistry(), MetricsRegistry()
    mine.counter("x").inc(1)
    theirs.gauge("x").set(5)
    return mine, theirs


MISMATCH = "'x' already registered as counter, not gauge"


class TestKindMismatchOnMerge:
    def test_merge_raises(self):
        mine, theirs = _counter_then_gauge()
        with pytest.raises(ValueError, match=MISMATCH):
            mine.merge(theirs)

    def test_merge_snapshot_raises(self):
        mine, theirs = _counter_then_gauge()
        with pytest.raises(ValueError, match=MISMATCH):
            mine.merge_snapshot(theirs.snapshot())

    @pytest.mark.parametrize("kind", ["counter", "gauge", "histogram"])
    def test_metric_merge_raises_for_every_kind(self, kind):
        mine = getattr(MetricsRegistry(), kind)("x")
        other = MetricsRegistry()
        other_kind = "gauge" if kind == "counter" else "counter"
        theirs = getattr(other, other_kind)("x")
        with pytest.raises(ValueError, match="already registered"):
            mine.merge(theirs)
        with pytest.raises(ValueError, match="already registered"):
            mine.merge_payload(theirs.to_dict())

    def test_journal_round_trip_raises(self):
        """A run summary read back from a journal line (as ``--resume``
        does) folds through the same check."""
        from repro.engine.progress import ProgressTracker
        from repro.testing.explorer import RunSummary

        tracker = ProgressTracker()
        for index, (kind, value) in enumerate((("counter", 1), ("gauge", 5))):
            registry = MetricsRegistry()
            if kind == "counter":
                registry.counter("x").inc(value)
            else:
                registry.gauge("x").set(value)
            summary = RunSummary(
                index=index,
                status="completed",
                decisions=(index,),
                metrics=registry.snapshot().to_dict(),
            )
            line = json.dumps(summary.to_dict())
            restored = RunSummary.from_dict(json.loads(line))
            if kind == "counter":
                tracker.note_run(restored)
            else:
                with pytest.raises(ValueError, match="already registered"):
                    tracker.note_run(restored)
        assert tracker.metrics.counter("x").total == 1

    def test_raises_with_assertions_disabled(self):
        """The check is not an ``assert``: ``python -O`` still raises."""
        code = (
            "from repro.obs.metrics import MetricsRegistry\n"
            "mine, theirs = MetricsRegistry(), MetricsRegistry()\n"
            "mine.counter('x').inc(1)\n"
            "theirs.gauge('x').set(5)\n"
            "for merge in (mine.merge, lambda r: mine.merge_snapshot(r.snapshot())):\n"
            "    try:\n"
            "        merge(theirs)\n"
            "    except ValueError:\n"
            "        continue\n"
            "    raise SystemExit(f'merged: {mine.to_dict()}')\n"
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
