"""Metrics: counters, gauges, and histograms with label series.

The observability layer's core data structure is the
:class:`MetricsRegistry` — a named collection of metric families, each
holding one numeric series per label set.  Runs never build one: a
campaign, ``repro explore`` and ``repro profile`` each fold every run's
compact metrics record into a single registry with
:func:`repro.obs.sink.fold_record`, which adds counters and histograms
and keeps each gauge's peak.

Everything is JSON- and pickle-safe by construction: label sets are
sorted tuples of string pairs, values are ints/floats, and a registry
round-trips through :meth:`MetricsRegistry.to_dict` /
:meth:`MetricsRegistry.from_dict` losslessly (the metrics JSONL file is
the same document, one metric per line).
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
    "DEFAULT_BUCKETS",
    "metric_row",
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
    ``series`` rows.  Every ``to_dict`` builds its payload here."""
    return {"name": name, "type": kind, "help": help, **extra, "series": series}


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

    def to_dict(self) -> Dict[str, Any]:
        raise NotImplementedError


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

    ``agg`` names what a series reports, and travels with the metric's
    document: ``"max"`` (default) for a peak across runs, which is how
    :func:`~repro.obs.sink.fold_record` folds every gauge, or ``"last"``
    for a reading set once (campaign throughput and identity).
    """

    kind = "gauge"
    _AGGS = ("max", "last")

    def __init__(self, name: str, help: str = "", agg: str = "max") -> None:
        super().__init__(name, help)
        if agg not in self._AGGS:
            raise ValueError(f"agg must be one of {self._AGGS}, got {agg!r}")
        self.agg = agg
        self._series: Dict[LabelSet, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._series[_labelset(labels)] = value

    def get(self, **labels: Any) -> Optional[float]:
        return self._series.get(_labelset(labels))

    def series(self) -> Dict[LabelSet, float]:
        return dict(self._series)

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

    def series(self) -> Dict[LabelSet, _HistSeries]:
        return dict(self._series)

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
    """A named collection of metrics.

    ``counter``/``gauge``/``histogram`` are get-or-create (idempotent for
    matching declarations), so instrumentation sites can declare their
    metrics at use and still share one family per name.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        #: name -> what :func:`~repro.obs.sink.fold_record` resolved it
        #: to in this registry; emptied whenever a metric is replaced
        self.fold_slots: Dict[str, Any] = {}

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

    # -- the document ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The plain-data document: ``{"metrics": [...]}``, one
        :func:`metric_row` per metric in name order."""
        return {"metrics": [metric.to_dict() for metric in self.metrics()]}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MetricsRegistry":
        """The registry a :meth:`to_dict` document describes."""
        registry = cls()
        for row in payload.get("metrics", ()):
            registry.add(metric_from_dict(row))
        return registry

    def add(self, metric: Metric) -> None:
        """Hold ``metric`` under its name, replacing any metric there."""
        self._metrics[metric.name] = metric
        self.fold_slots.clear()


def metric_from_dict(payload: Dict[str, Any]) -> Metric:
    """The metric one :func:`metric_row` describes.  Raises
    ``ValueError`` for an unknown type or ``agg``, and for a histogram
    series whose ``counts`` do not hold one entry per bucket bound plus
    the ``+Inf`` bucket."""
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
        width = len(histogram.buckets) + 1
        for row in payload.get("series", ()):
            if len(row["counts"]) != width:
                raise ValueError(
                    f"histogram {name!r}: a series holds {len(row['counts'])} "
                    f"counts for {len(histogram.buckets)} bucket bounds "
                    f"(expected {width})"
                )
            key = _labelset(row.get("labels"))
            histogram._series[key] = _HistSeries(
                counts=[int(c) for c in row["counts"]],
                sum=float(row.get("sum", 0.0)),
                count=int(row.get("count", 0)),
            )
        return histogram
    raise ValueError(f"unknown metric type {kind!r} for {name!r}")
