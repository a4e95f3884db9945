"""repro.obs — metrics, spans, and live telemetry.

The observability layer of the reproduction: a metrics registry
(:mod:`.metrics`), dual-clock span tracing (:mod:`.spans`), the
kernel-event instrumentation sink (:mod:`.sink`), whose per-run record
:func:`~repro.obs.sink.fold_record` folds into a registry — the one way
a run's metrics reach one — JSONL/Prometheus exporters
(:mod:`.export`), and the workload profiler (:mod:`.profile`).
Streaming campaign telemetry — frames, the live aggregator, the embedded
HTTP endpoint, the terminal dashboard, and the Perfetto trace export —
lives in the :mod:`.live` subpackage (imported on demand, not here, so
``repro.obs`` itself stays free of HTTP machinery).

Design rule: observability is *pull*, never *push* — nothing in the VM
or engine imports this package at module level except through the
factory wrappers a caller explicitly installs, and an uninstrumented
kernel pays nothing.
"""

from .export import (
    load_metrics_jsonl,
    to_prometheus,
    write_metrics_jsonl,
    write_prometheus,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .profile import ProfileReport, TimedDetector, profile_workload
from .sink import InstrumentationSink
from .spans import TICK_BUCKETS, Span, SpanTracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "Span",
    "SpanTracer",
    "TICK_BUCKETS",
    "InstrumentationSink",
    "write_metrics_jsonl",
    "load_metrics_jsonl",
    "to_prometheus",
    "write_prometheus",
    "ProfileReport",
    "TimedDetector",
    "profile_workload",
]
