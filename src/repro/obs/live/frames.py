"""Telemetry frames: the compact streaming currency of a live campaign.

A :class:`TelemetryFrame` is what a campaign worker posts to the
orchestrator queue for every completed run: the run's
:class:`~repro.testing.explorer.RunSummary` plus the shard-local
counters the summary alone cannot provide — how many runs this shard has
completed so far, and how many of them timed out.  Frames are plain-dict
serializable, so they ride the existing multiprocessing plumbing
unchanged and journal-compatible (the embedded summary dict is
byte-identical to the pre-frame ``("run", ...)`` payload).  A shard's
end travels as a plain ``("done", ...)`` or ``("fail", ...)`` tuple (see
:func:`repro.engine.worker.worker_main`).

The orchestrator's :class:`~repro.obs.live.aggregate.LiveAggregator`
consumes frames incrementally; the SSE stream re-publishes an annotated
projection of each one (see :mod:`repro.obs.live.server`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.testing.explorer import RunSummary

__all__ = ["TelemetryFrame"]


@dataclass(frozen=True)
class TelemetryFrame:
    """One run's telemetry message from a campaign worker.

    Attributes:
        shard: id of the emitting shard.
        runs: runs this shard has completed so far, this one included.
        timeouts: how many of those runs ended with TIMEOUT status.
        summary: the carried run.
    """

    shard: str
    runs: int = 0
    timeouts: int = 0
    summary: Optional[RunSummary] = field(default=None, compare=False)

    @classmethod
    def for_run(
        cls, shard: str, summary: RunSummary, runs: int, timeouts: int = 0
    ) -> "TelemetryFrame":
        return cls(shard=shard, runs=runs, timeouts=timeouts, summary=summary)

    # -- wire format -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict projection (picklable and JSON-safe)."""
        payload: Dict[str, Any] = {"shard": self.shard}
        if self.runs:
            payload["runs"] = self.runs
        if self.timeouts:
            payload["timeouts"] = self.timeouts
        if self.summary is not None:
            payload["summary"] = self.summary.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TelemetryFrame":
        raw_summary = payload.get("summary")
        summary = (
            RunSummary.from_dict(dict(raw_summary))
            if raw_summary is not None
            else None
        )
        return cls(
            shard=str(payload["shard"]),
            runs=int(payload.get("runs", 0)),
            timeouts=int(payload.get("timeouts", 0)),
            summary=summary,
        )
