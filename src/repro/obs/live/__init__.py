"""repro.obs.live — streaming campaign telemetry.

The live half of the observability layer: compact
:class:`~repro.obs.live.frames.TelemetryFrame` messages streamed from
campaign workers, a :class:`~repro.obs.live.aggregate.LiveAggregator`
that views the campaign's one state (the very objects the final result
reads) and fans SSE frames out, an embedded stdlib HTTP
endpoint (:class:`~repro.obs.live.server.TelemetryServer` — ``/status``
JSON, ``/metrics`` Prometheus, ``/events`` SSE), a terminal dashboard
(:mod:`~repro.obs.live.dash`), and a Perfetto-loadable Chrome
trace-event export of single runs (:mod:`~repro.obs.live.chrome`).

Same design rule as :mod:`repro.obs`: pull, never push — the engine only
feeds a :class:`LiveAggregator` that a caller explicitly passed in, and a
campaign without one pays nothing, imports included: the HTTP endpoint
and the dashboard load only when imported from their submodules.
"""

from .aggregate import LiveAggregator, ShardRow, attach_campaign_info
from .chrome import to_chrome_trace, write_chrome_trace
from .frames import TelemetryFrame

__all__ = [
    "TelemetryFrame",
    "LiveAggregator",
    "ShardRow",
    "attach_campaign_info",
    "to_chrome_trace",
    "write_chrome_trace",
]
