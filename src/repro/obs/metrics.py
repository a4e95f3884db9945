"""Mergeable metrics: counters, gauges, and histograms with label series.

The observability layer's core data structure is the
:class:`MetricsRegistry` — a named collection of metric families, each
holding one numeric series per label set.  Registries follow the same
merge discipline as :class:`~repro.coverage.matrix.CoverageMatrix`: a
campaign worker builds one per run, projects it to a plain-dict
:class:`MetricsSnapshot` that crosses the process boundary inside a
``RunSummary``, and the orchestrator folds every snapshot into a single
campaign-level registry.  Merging is associative and order-independent
for counters and histograms (addition) and uses an explicit aggregation
mode for gauges (max by default: a gauge merged across runs reports the
peak, e.g. the deepest wait queue any schedule produced).

Everything is JSON- and pickle-safe by construction: label sets are
sorted tuples of string pairs, values are ints/floats, and the snapshot
form round-trips through :func:`MetricsSnapshot.to_dict` /
:func:`MetricsSnapshot.from_dict` losslessly.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "DEFAULT_BUCKETS",
    "metric_row",
    "series_rows",
]

#: A label set, normalized: sorted ``(key, value)`` string pairs.
LabelSet = Tuple[Tuple[str, str], ...]

#: Default histogram buckets — tuned for tick/second durations spanning
#: sub-millisecond VM steps up to multi-second runs.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0,
    500.0, 1000.0, 5000.0,
)


def _labelset(labels: Optional[Dict[str, Any]]) -> LabelSet:
    if not labels:
        return ()
    if len(labels) == 1:  # the common per-thread / per-monitor series
        ((key, value),) = labels.items()
        return ((str(key), str(value)),)
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def metric_row(
    kind: str, name: str, help: str, series: List[Dict[str, Any]], **extra: Any
) -> Dict[str, Any]:
    """One metric in snapshot form: ``name``, ``type``, ``help``, then
    ``extra`` (a gauge's ``agg``, a histogram's ``buckets``), then its
    ``series`` rows.  Every ``to_dict`` builds its payload here, and
    producers that write snapshot rows directly (the instrumentation
    sink) build theirs here too."""
    return {"name": name, "type": kind, "help": help, **extra, "series": series}


def series_rows(label: str, values: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Snapshot-form rows of a one-label counter or gauge series: one
    ``{"labels": {label: key}, "value": value}`` per entry, in label
    order (the order ``to_dict`` sorts string-keyed series into)."""
    return [
        {"labels": {label: key}, "value": values[key]} for key in sorted(values)
    ]


class Metric:
    """Base of the three metric families.

    Attributes:
        name: metric name (``snake_case``; exporters append suffixes).
        help: one-line human description for the exporters.
    """

    kind = "metric"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help

    def series(self) -> Dict[LabelSet, Any]:
        raise NotImplementedError

    def merge(self, other: "Metric") -> None:
        raise NotImplementedError

    def merge_payload(self, payload: Dict[str, Any]) -> None:
        """Fold one :meth:`to_dict` payload of the same metric in: the
        same result as ``merge`` of the metric the payload describes."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    def _require_kind(self, kind: Any) -> None:
        """Raise unless a metric of ``kind`` may merge into this one."""
        if kind != self.kind:
            raise ValueError(
                f"metric {self.name!r} already registered as {self.kind}, "
                f"not {kind}"
            )


class Counter(Metric):
    """A monotonically increasing sum per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._series: Dict[LabelSet, float] = {}

    def inc(self, amount: float = 1, **labels: Any) -> None:
        key = _labelset(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def get(self, **labels: Any) -> float:
        return self._series.get(_labelset(labels), 0)

    @property
    def total(self) -> float:
        return sum(self._series.values())

    def series(self) -> Dict[LabelSet, float]:
        return dict(self._series)

    def top(self, n: int = 3, label: Optional[str] = None) -> List[Tuple[str, float]]:
        """The ``n`` largest series as ``(label_value, value)`` pairs.

        ``label`` selects which label key to report (default: the first
        key of each label set, which is the only key for single-label
        counters like per-monitor or per-thread series).
        """
        rows = []
        for labels, value in self._series.items():
            if not labels:
                name = ""
            elif label is not None:
                name = dict(labels).get(label, "")
            else:
                name = labels[0][1]
            rows.append((name, value))
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows[:n]

    def merge(self, other: "Metric") -> None:
        self._require_kind(other.kind)
        assert isinstance(other, Counter)
        for key, value in other._series.items():
            self._series[key] = self._series.get(key, 0) + value

    def merge_payload(self, payload: Dict[str, Any]) -> None:
        self._require_kind(payload.get("type"))
        series = self._series
        for row in payload.get("series", ()):
            key = _labelset(row.get("labels"))
            series[key] = series.get(key, 0) + row["value"]

    def to_dict(self) -> Dict[str, Any]:
        return metric_row(
            self.kind,
            self.name,
            self.help,
            [
                {"labels": dict(labels), "value": value}
                for labels, value in sorted(self._series.items())
            ],
        )


class Gauge(Metric):
    """A point-in-time value per label set.

    ``agg`` decides how two gauges merge across runs/workers: ``"max"``
    (default — peaks survive), ``"min"``, ``"sum"``, or ``"last"``.
    """

    kind = "gauge"
    _AGGS = ("max", "min", "sum", "last")

    def __init__(self, name: str, help: str = "", agg: str = "max") -> None:
        super().__init__(name, help)
        if agg not in self._AGGS:
            raise ValueError(f"agg must be one of {self._AGGS}, got {agg!r}")
        self.agg = agg
        self._series: Dict[LabelSet, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._series[_labelset(labels)] = value

    def set_max(self, value: float, **labels: Any) -> None:
        """Keep the running maximum (the cheap way to track a peak)."""
        key = _labelset(labels)
        if value > self._series.get(key, float("-inf")):
            self._series[key] = value

    def get(self, **labels: Any) -> Optional[float]:
        return self._series.get(_labelset(labels))

    def series(self) -> Dict[LabelSet, float]:
        return dict(self._series)

    def _combine(self, mine: float, theirs: float) -> float:
        if self.agg == "max":
            return max(mine, theirs)
        if self.agg == "min":
            return min(mine, theirs)
        if self.agg == "sum":
            return mine + theirs
        return theirs  # "last"

    def merge(self, other: "Metric") -> None:
        self._require_kind(other.kind)
        assert isinstance(other, Gauge)
        for key, value in other._series.items():
            if key in self._series:
                self._series[key] = self._combine(self._series[key], value)
            else:
                self._series[key] = value

    def merge_payload(self, payload: Dict[str, Any]) -> None:
        self._require_kind(payload.get("type"))
        series = self._series
        for row in payload.get("series", ()):
            key = _labelset(row.get("labels"))
            value = row["value"]
            if key in series:
                series[key] = self._combine(series[key], value)
            else:
                series[key] = value

    def to_dict(self) -> Dict[str, Any]:
        return metric_row(
            self.kind,
            self.name,
            self.help,
            [
                {"labels": dict(labels), "value": value}
                for labels, value in sorted(self._series.items())
            ],
            agg=self.agg,
        )


@dataclass
class _HistSeries:
    counts: List[int]
    sum: float = 0.0
    count: int = 0


class Histogram(Metric):
    """Cumulative-bucket distribution per label set (Prometheus-style).

    ``buckets`` are the upper bounds (``le``); an implicit ``+Inf``
    bucket always exists, so ``observe`` never loses a sample.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self._series: Dict[LabelSet, _HistSeries] = {}

    def _get_series(self, labels: Dict[str, Any]) -> _HistSeries:
        key = _labelset(labels)
        series = self._series.get(key)
        if series is None:
            series = _HistSeries(counts=[0] * (len(self.buckets) + 1))
            self._series[key] = series
        return series

    def observe(self, value: float, **labels: Any) -> None:
        series = self._get_series(labels)
        series.counts[bisect.bisect_left(self.buckets, value)] += 1
        series.sum += value
        series.count += 1

    def count(self, **labels: Any) -> int:
        series = self._series.get(_labelset(labels))
        return series.count if series else 0

    def total(self, **labels: Any) -> float:
        series = self._series.get(_labelset(labels))
        return series.sum if series else 0.0

    def mean(self, **labels: Any) -> float:
        series = self._series.get(_labelset(labels))
        if not series or not series.count:
            return 0.0
        return series.sum / series.count

    def series(self) -> Dict[LabelSet, _HistSeries]:
        return dict(self._series)

    def merge(self, other: "Metric") -> None:
        self._require_kind(other.kind)
        assert isinstance(other, Histogram)
        self._require_buckets(other.buckets)
        for key, theirs in other._series.items():
            mine = self._series.get(key)
            if mine is None:
                self._series[key] = _HistSeries(
                    counts=list(theirs.counts), sum=theirs.sum, count=theirs.count
                )
            else:
                for i, c in enumerate(theirs.counts):
                    mine.counts[i] += c
                mine.sum += theirs.sum
                mine.count += theirs.count

    def merge_payload(self, payload: Dict[str, Any]) -> None:
        self._require_kind(payload.get("type"))
        self._require_buckets(tuple(sorted(payload.get("buckets", DEFAULT_BUCKETS))))
        series = self._series
        for row in payload.get("series", ()):
            key = _labelset(row.get("labels"))
            counts = [int(c) for c in row["counts"]]
            total = float(row.get("sum", 0.0))
            count = int(row.get("count", 0))
            mine = series.get(key)
            if mine is None:
                series[key] = _HistSeries(counts=counts, sum=total, count=count)
            else:
                for i, c in enumerate(counts):
                    mine.counts[i] += c
                mine.sum += total
                mine.count += count

    def _require_buckets(self, buckets: Tuple[float, ...]) -> None:
        if buckets != self.buckets:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket bounds differ"
            )

    def to_dict(self) -> Dict[str, Any]:
        return metric_row(
            self.kind,
            self.name,
            self.help,
            [
                {
                    "labels": dict(labels),
                    "counts": list(series.counts),
                    "sum": series.sum,
                    "count": series.count,
                }
                for labels, series in sorted(self._series.items())
            ],
            buckets=list(self.buckets),
        )


class MetricsRegistry:
    """A named collection of metrics with campaign-merge semantics.

    ``counter``/``gauge``/``histogram`` are get-or-create (idempotent for
    matching declarations), so instrumentation sites can declare their
    metrics at use and still share one family per name.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def metrics(self) -> Iterable[Metric]:
        return [self._metrics[name] for name in sorted(self._metrics)]

    def _register(self, metric: Metric) -> Metric:
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if existing.kind != metric.kind:
                raise ValueError(
                    f"metric {metric.name!r} already registered as "
                    f"{existing.kind}, not {metric.kind}"
                )
            return existing
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter(name, help))  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", agg: str = "max") -> Gauge:
        return self._register(Gauge(name, help, agg=agg))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram(name, help, buckets=buckets))  # type: ignore[return-value]

    # -- merge / snapshot --------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold every metric of ``other`` into this registry (add counters
        and histograms, aggregate gauges by their declared mode)."""
        for metric in other.metrics():
            mine = self._metrics.get(metric.name)
            if mine is None:
                self._metrics[metric.name] = _metric_from_dict(metric.to_dict())
            else:
                mine.merge(metric)

    def merge_snapshot(self, snapshot: "MetricsSnapshot") -> None:
        """Fold a snapshot in, with the result of
        ``merge(snapshot.to_registry())`` but in one pass: each row goes
        straight into the existing series, and a :class:`Metric` is built
        only for a name this registry has not seen.  Raises
        ``ValueError`` on a metric-kind or histogram-bucket mismatch."""
        self.merge_rows(snapshot.metrics)

    def merge_rows(self, rows: Iterable[Dict[str, Any]]) -> None:
        """:meth:`merge_snapshot` of a snapshot's ``metrics`` rows as they
        are, e.g. the ``"metrics"`` list of a ``RunSummary.metrics`` dict,
        without building the :class:`MetricsSnapshot` first."""
        for payload in rows:
            name = str(payload["name"])
            mine = self._metrics.get(name)
            if mine is None:
                self._metrics[name] = _metric_from_dict(payload)
            else:
                mine.merge_payload(payload)

    def snapshot(self) -> "MetricsSnapshot":
        return MetricsSnapshot(
            metrics=tuple(metric.to_dict() for metric in self.metrics())
        )

    def to_dict(self) -> Dict[str, Any]:
        return self.snapshot().to_dict()

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MetricsRegistry":
        return MetricsSnapshot.from_dict(payload).to_registry()


def _metric_from_dict(payload: Dict[str, Any]) -> Metric:
    kind = payload.get("type")
    name = str(payload.get("name", ""))
    help_text = str(payload.get("help", ""))
    if kind == "counter":
        counter = Counter(name, help_text)
        for row in payload.get("series", ()):
            counter.inc(row["value"], **row.get("labels", {}))
        return counter
    if kind == "gauge":
        gauge = Gauge(name, help_text, agg=str(payload.get("agg", "max")))
        for row in payload.get("series", ()):
            gauge.set(row["value"], **row.get("labels", {}))
        return gauge
    if kind == "histogram":
        histogram = Histogram(
            name, help_text, buckets=payload.get("buckets", DEFAULT_BUCKETS)
        )
        for row in payload.get("series", ()):
            key = _labelset(row.get("labels"))
            histogram._series[key] = _HistSeries(
                counts=[int(c) for c in row["counts"]],
                sum=float(row.get("sum", 0.0)),
                count=int(row.get("count", 0)),
            )
        return histogram
    raise ValueError(f"unknown metric type {kind!r} for {name!r}")


@dataclass(frozen=True)
class MetricsSnapshot:
    """The plain-data projection of a registry.

    This is the form that rides inside a ``RunSummary`` across the
    worker/orchestrator process boundary and inside campaign journal
    lines: a tuple of per-metric dicts, nothing but JSON scalars inside.
    """

    metrics: Tuple[Dict[str, Any], ...] = ()

    @property
    def empty(self) -> bool:
        return not self.metrics

    def to_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        for payload in self.metrics:
            registry._metrics[str(payload["name"])] = _metric_from_dict(payload)
        return registry

    def to_dict(self) -> Dict[str, Any]:
        return {"metrics": [dict(m) for m in self.metrics]}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MetricsSnapshot":
        return cls(metrics=tuple(payload.get("metrics", ())))

    @classmethod
    def from_registry(cls, registry: MetricsRegistry) -> "MetricsSnapshot":
        return registry.snapshot()
