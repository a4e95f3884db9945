"""Live view of a campaign's state, safe to read while the campaign runs.

A :class:`LiveAggregator` keeps no run or shard counters of its own: it
is a view of one :class:`~repro.engine.progress.ProgressTracker`, the
campaign's only incremental state.  ``run_campaign`` binds it to the
campaign's tracker; built standalone, it binds to a fresh one.  The
tracker folds every merged run and shard transition once, so ``/status``,
``/metrics`` and the SSE frames read the very objects the final
:class:`~repro.engine.campaign.CampaignResult` reads, including under
``--resume``.

What the aggregator adds is the live surface: campaign identity
(``info``), ``state``/``goal``, the shard rows' shard-local counters
from each :class:`~repro.obs.live.frames.TelemetryFrame`, and the SSE
fan-out.  The tracker's lock guards the fold and every HTTP read, so the
embedded server's handler threads never see torn counters.  SSE
subscribers receive one compact dict per frame via bounded queues; a
slow consumer drops frames rather than stalling the orchestrator.
"""

from __future__ import annotations

import json
import queue
import time
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.engine.progress import ProgressTracker, ShardRow, state_view
from repro.obs.metrics import Gauge, MetricsRegistry
from repro.testing.explorer import RunSummary
from repro.vm.kernel import RunStatus

from .frames import TelemetryFrame

__all__ = ["LiveAggregator", "ShardRow", "STATUS_FORMAT", "campaign_registry"]

#: ``format`` marker of the ``/status`` JSON document.
STATUS_FORMAT = "repro-live-status"

#: Dropped-frame ceiling per SSE subscriber: a consumer more than this
#: many frames behind loses the oldest rather than blocking the campaign.
_SUBSCRIBER_DEPTH = 256


class LiveAggregator:
    """Thread-safe view of a campaign's state, plus its SSE fan-out."""

    def __init__(
        self,
        info: Optional[Mapping[str, Any]] = None,
        total_runs: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        #: campaign identity (fingerprint, factory, mode, budget, ...)
        self.info: Dict[str, Any] = dict(info or {})
        self.state = "running"
        self.goal: Optional[str] = None
        self._frame_seq = 0
        self._subscribers: List["queue.Queue[Dict[str, Any]]"] = []
        #: the ``end`` frame :meth:`close` published, for late subscribers
        self._end: Optional[Dict[str, Any]] = None
        self.bind(ProgressTracker(total_runs=total_runs, clock=clock))

    def bind(self, progress: ProgressTracker) -> None:
        """View ``progress`` from now on, and publish its shard
        transitions to the SSE subscribers."""
        self.progress = progress
        progress.listener = self._publish

    runs = state_view("unique_runs", "unique schedules merged")
    executed = state_view("runs", "every execution, duplicates included")
    duplicates = state_view("duplicates", "duplicate schedules merged")
    failures = state_view("failures", "unique failing schedules")
    class_counts = state_view("classes", "failure-class code -> unique schedules")
    metrics = state_view("metrics", "merged per-run metrics registry")
    total_runs = state_view("total_runs", "the campaign's run budget")
    shards = state_view("shards", "shard id -> ShardRow")
    shards_total = state_view("shards_total", "shards planned")
    shards_done = state_view("shards_done", "shards completed or resumed")
    shards_resumed = state_view("shards_resumed", "shards merged from the journal")

    # -- intake (orchestrator thread) --------------------------------------

    def note_run(
        self,
        summary: RunSummary,
        duplicate: bool,
        shard_id: str = "",
        frame: Optional[TelemetryFrame] = None,
    ) -> None:
        """Publish one merged run, already folded into the bound state,
        and update its shard row from the frame's shard-local counters
        (``duplicate`` is the orchestrator's schedule-dedup verdict)."""
        progress = self.progress
        with progress.lock:
            shard = shard_id or (frame.shard if frame else "")
            if shard:
                row = progress.shard_row(shard)
                row.state = "running"
                if frame is not None:
                    row.runs = max(row.runs, frame.runs)
                    row.timeouts = max(row.timeouts, frame.timeouts)
                else:
                    row.runs += 1
                    if summary.status == RunStatus.TIMEOUT.value:
                        row.timeouts += 1
            self._publish(
                {
                    "kind": "run",
                    "shard": shard,
                    "status": summary.status,
                    "duplicate": duplicate,
                    "classes": list(summary.detected_classes),
                    "runs": progress.unique_runs,
                    "executed": progress.runs,
                    "duplicates": progress.duplicates,
                    "failures": progress.failures,
                }
            )

    def close(self, goal: Optional[str] = None, state: str = "done") -> None:
        """Mark the campaign finished and wake every SSE subscriber."""
        with self.progress.lock:
            self.state = state
            self.goal = goal
            self._end = {"kind": "end", "state": state, "goal": goal}
            self._publish(self._end)

    # -- reads (HTTP handler threads) --------------------------------------

    def status(self) -> Dict[str, Any]:
        """The ``/status`` JSON document (see docs/formats.md)."""
        progress = self.progress
        with progress.lock:
            doc: Dict[str, Any] = {
                "format": STATUS_FORMAT,
                "version": 1,
                "state": self.state,
                "goal": self.goal,
                "runs": progress.unique_runs,
                "executed": progress.runs,
                **progress.counts(),
                "statuses": dict(sorted(progress.statuses.items())),
                "class_counts": dict(sorted(progress.classes.items())),
                "shard_table": [
                    row.to_dict() for _, row in sorted(progress.shards.items())
                ],
            }
            doc.update(self.info)
            return doc

    def status_json(self) -> str:
        return json.dumps(self.status(), sort_keys=True)

    def registry(self) -> MetricsRegistry:
        """What ``/metrics`` serves mid-run: :func:`campaign_registry`
        over the bound state, with the throughput so far."""
        progress = self.progress
        with progress.lock:
            return campaign_registry(progress, self.info, progress.runs_per_sec())

    # -- SSE plumbing ------------------------------------------------------

    def subscribe(self) -> "queue.Queue[Dict[str, Any]]":
        """A queue of every frame published from now on.  The stream
        always ends with the ``end`` frame: a subscriber that arrives
        after :meth:`close` finds it queued already (decided under the
        same lock as the close, so no frame can fall in between)."""
        subscriber: "queue.Queue[Dict[str, Any]]" = queue.Queue(
            maxsize=_SUBSCRIBER_DEPTH
        )
        with self.progress.lock:
            if self._end is not None:
                subscriber.put_nowait(self._end)
            self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: "queue.Queue[Dict[str, Any]]") -> None:
        with self.progress.lock:
            try:
                self._subscribers.remove(subscriber)
            except ValueError:
                pass

    def _publish(self, frame: Dict[str, Any]) -> None:
        """Fan ``frame`` out to every subscriber (callers hold the lock)."""
        self._frame_seq += 1
        frame["seq"] = self._frame_seq
        for subscriber in self._subscribers:
            try:
                subscriber.put_nowait(frame)
            except queue.Full:
                try:  # drop the oldest frame, never the stream
                    subscriber.get_nowait()
                    subscriber.put_nowait(frame)
                except (queue.Empty, queue.Full):
                    pass


def campaign_registry(
    progress: ProgressTracker,
    info: Mapping[str, Any],
    runs_per_sec: Optional[float],
) -> MetricsRegistry:
    """The campaign-level registry over a campaign state, freshly built:
    the one builder behind the live ``/metrics`` and
    :meth:`~repro.engine.campaign.CampaignResult.build_metrics`."""
    registry = MetricsRegistry.from_dict(progress.metrics.to_dict())
    runs = registry.counter(
        "campaign_runs_total", "unique schedules merged, by run status"
    )
    for status_value, count in progress.statuses.items():
        runs.inc(count, status=status_value)
    registry.counter(
        "campaign_duplicate_schedules_total",
        "runs discarded as duplicate schedules",
    ).inc(progress.duplicates)
    classes = registry.counter(
        "campaign_failure_classes_total",
        "unique schedules implicating each Table-1 failure class",
    )
    for code, count in progress.classes.items():
        classes.inc(count, failure_class=code)
    shards = registry.counter(
        "campaign_shards_total", "shard dispositions across the campaign"
    )
    shards.inc(progress.shards_done, state="completed")
    shards.inc(len(progress.shards_failed), state="failed")
    shards.inc(progress.shards_requeued, state="requeued")
    shards.inc(progress.shards_resumed, state="resumed")
    if runs_per_sec is not None:
        registry.gauge(
            "campaign_runs_per_second",
            "overall campaign throughput (executed runs / wall time)",
            agg="last",
        ).set(runs_per_sec)
    attach_campaign_info(registry, info, progress.shards_total)
    return registry


def attach_campaign_info(
    registry: MetricsRegistry,
    info: Mapping[str, Any],
    shards_total: int,
) -> Optional[Gauge]:
    """Add the ``campaign_info`` labeled gauge (value always 1) carrying
    campaign identity: fingerprint, factory, mode, shard count, and the
    repro version — the Prometheus ``*_info`` convention."""
    labels: Dict[str, str] = {}
    for key in ("fingerprint", "factory", "mode"):
        value = info.get(key)
        if value is not None:
            labels[key] = str(value)
    if not labels and not shards_total:
        return None
    from repro import __version__

    labels["version"] = __version__
    labels["shards"] = str(shards_total)
    gauge = registry.gauge(
        "campaign_info",
        "campaign identity labels; the value is always 1",
        agg="last",
    )
    gauge.set(1, **labels)
    return gauge
