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
campaign without one pays nothing.
"""

from .aggregate import LiveAggregator, ShardRow, attach_campaign_info
from .chrome import to_chrome_trace, write_chrome_trace
from .dash import LocalDashboard, fetch_status, render_dashboard, run_dashboard
from .frames import TelemetryFrame
from .server import TelemetryServer, parse_serve_address

__all__ = [
    "TelemetryFrame",
    "LiveAggregator",
    "ShardRow",
    "attach_campaign_info",
    "TelemetryServer",
    "parse_serve_address",
    "render_dashboard",
    "fetch_status",
    "run_dashboard",
    "LocalDashboard",
    "to_chrome_trace",
    "write_chrome_trace",
]
