"""The campaign's one incremental state, and its heartbeat.

:class:`ProgressTracker` is the only code that counts a merged run or a
shard transition.  The orchestrator's dedup point calls
:meth:`~ProgressTracker.note_run` once per merged run (with its
duplicate verdict) and one ``note_shard_*`` per shard transition.
Everything that reports on a campaign is a view of this state: the text
and ``--progress-json`` heartbeats rendered here,
:class:`~repro.engine.campaign.CampaignResult`'s counts, and the live
``/status``, ``/metrics`` and SSE documents of
:class:`~repro.obs.live.aggregate.LiveAggregator`, which reads it under
:attr:`ProgressTracker.lock` from the HTTP handler threads.

The orchestrator calls ``maybe_emit`` once per loop tick; the tracker
rate-limits its own output so a hot campaign does not drown the
terminal.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import IO, Any, Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import Counter as MetricsCounter
from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import fold_record
from repro.testing.explorer import RunSummary

__all__ = ["ProgressTracker", "ShardRow", "format_duration", "state_view"]


@dataclass
class ShardRow:
    """One shard's disposition."""

    shard: str
    state: str = "pending"  # pending|running|done|failed|resumed
    runs: int = 0
    timeouts: int = 0
    attempts: int = 1
    exhausted: bool = False
    error: str = ""

    def to_dict(self) -> Dict[str, Any]:
        row: Dict[str, Any] = {
            "shard": self.shard,
            "state": self.state,
            "runs": self.runs,
            "attempts": self.attempts,
        }
        for key in ("timeouts", "exhausted", "error"):  # only when set
            value = getattr(self, key)
            if value:
                row[key] = value
        return row


def format_duration(seconds: float) -> str:
    """``9s``, ``1m15s``, ``1h01m``: the heartbeat's and dashboard's
    elapsed/eta spelling."""
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def state_view(name: str, doc: str) -> property:
    """A read-only property reading ``name`` off ``self.progress``, the
    campaign state a result or live view is bound to."""
    return property(lambda self: getattr(self.progress, name), doc=doc)


class ProgressTracker:
    """The campaign state, folded once per merged run and shard
    transition, with optional periodic heartbeat emission.

    ``json_mode`` switches the emitted heartbeats from the human one-liner
    to machine-readable JSONL (one object per heartbeat, ``"final": true``
    on the last) — what ``repro campaign --progress-json`` gives CI
    pipelines to parse instead of scraping the text line.
    """

    def __init__(
        self,
        total_runs: Optional[int] = None,
        stream: Optional[IO[str]] = None,
        interval: float = 1.0,
        clock=time.monotonic,
        json_mode: bool = False,
    ) -> None:
        self.total_runs = total_runs
        self.stream = stream
        self.interval = interval
        self.json_mode = json_mode
        self._clock = clock
        self.started_at = clock()
        self._last_emit = float("-inf")
        #: taken by every fold and by every read from another thread
        self.lock = threading.Lock()
        #: called under :attr:`lock` with a dict describing each shard
        #: transition (the live view publishes it as an SSE frame)
        self.listener: Optional[Callable[[Dict[str, Any]], None]] = None

        self.runs = 0  # every merged execution, duplicate schedules included
        self.duplicates = 0
        self.failures = 0  # unique failing schedules
        #: distinct failure signatures, in first-seen order
        self.signatures: Dict[Tuple[str, Tuple[str, ...]], None] = {}
        #: run status -> unique schedules
        self.statuses: Counter = Counter()
        #: failure-class code -> unique schedules implicating it (detect mode)
        self.classes: Counter = Counter()
        #: merged per-run metrics of the unique schedules (metrics mode)
        self.metrics = MetricsRegistry()
        #: per-arc hit matrix (a CoverageMatrix) when coverage is tracked
        self.coverage: Optional[Any] = None

        self.shards: Dict[str, ShardRow] = {}
        self.shards_total = 0
        self.shards_done = 0  # resumed shards included
        self.shards_failed: List[str] = []
        self.shards_requeued = 0
        self.shards_resumed = 0

    # -- the fold ----------------------------------------------------------

    def note_run(self, summary: RunSummary, duplicate: bool = False) -> None:
        """Fold one merged run; ``duplicate`` is the orchestrator's
        schedule-dedup verdict, and a duplicate counts as an execution
        only."""
        with self.lock:
            self.runs += 1
            if duplicate:
                self.duplicates += 1
                return
            self.statuses[summary.status] += 1
            if not summary.ok:
                self.failures += 1
                self.signatures.setdefault(summary.signature)
            self.classes.update(summary.detected_classes)
            if summary.metrics:
                fold_record(self.metrics, summary.metrics)
            if self.coverage is not None:
                label = (
                    f"seed{summary.seed}"
                    if summary.seed is not None
                    else f"run{summary.index}"
                )
                self.coverage.add_counts(
                    {(m, s, d): n for m, s, d, n in summary.arc_hits}, label=label
                )

    def note_shard_done(self, shard_id: str, exhausted: bool = False) -> None:
        with self.lock:
            self.shards_done += 1
            row = self.shard_row(shard_id)
            row.state = "done"
            row.exhausted = exhausted
            self._notify(
                "shard-done",
                shard_id,
                exhausted=exhausted,
                shards_done=self.shards_done,
                shards_total=self.shards_total,
            )

    def note_shard_failed(self, shard_id: str, error: str = "") -> None:
        with self.lock:
            self.shards_failed.append(shard_id)
            row = self.shard_row(shard_id)
            row.state = "failed"
            row.error = error
            self._notify("shard-failed", shard_id, error=error)

    def note_shard_requeued(self, shard_id: str = "") -> None:
        with self.lock:
            self.shards_requeued += 1
            if shard_id:
                row = self.shard_row(shard_id)
                row.attempts += 1
                row.state = "pending"
                row.runs = row.timeouts = 0
            self._notify("shard-requeued", shard_id)

    def note_shards_resumed(self, shard_ids: List[str]) -> None:
        with self.lock:
            self.shards_resumed += len(shard_ids)
            self.shards_done += len(shard_ids)
            for shard_id in shard_ids:
                self.shard_row(shard_id).state = "resumed"

    def shard_row(self, shard_id: str) -> ShardRow:
        """The table row of ``shard_id``, created on first use (callers
        hold :attr:`lock`)."""
        row = self.shards.get(shard_id)
        if row is None:
            row = self.shards[shard_id] = ShardRow(shard=shard_id)
        return row

    def _notify(self, kind: str, shard_id: str, **detail: Any) -> None:
        if self.listener is not None:
            self.listener({"kind": kind, "shard": shard_id, **detail})

    # -- derived numbers ---------------------------------------------------

    @property
    def unique_runs(self) -> int:
        return self.runs - self.duplicates

    @property
    def shard_attempts(self) -> Dict[str, int]:
        """Shard id -> launch attempts of every crash-requeued shard, so a
        flapping shard shows in the heartbeat while the campaign runs."""
        return {
            shard_id: row.attempts
            for shard_id, row in sorted(self.shards.items())
            if row.attempts > 1
        }

    @property
    def coverage_fraction(self) -> Optional[float]:
        """Fraction of CoFG arcs covered so far, or None before the first
        unique run (or without coverage tracking)."""
        if self.coverage is None or not self.coverage.rows:
            return None
        return self.coverage.coverage_fraction()

    @property
    def top_contended(self) -> Optional[Tuple[str, float]]:
        """``(monitor, contended_ticks)`` of the most contended monitor in
        the merged metrics, or None (looked up when a view renders)."""
        contended = self.metrics.get("vm_monitor_contended_ticks_total")
        if not isinstance(contended, MetricsCounter):
            return None
        top = contended.top(1, label="monitor")
        return top[0] if top else None

    def elapsed(self) -> float:
        return max(self._clock() - self.started_at, 1e-9)

    def runs_per_sec(self) -> float:
        return self.runs / self.elapsed()

    def eta_seconds(self) -> Optional[float]:
        """Seconds until ``total_runs`` at the observed rate, or None
        when no budget is known or no run has finished yet."""
        if not self.total_runs or self.runs <= 0:
            return None
        remaining = self.total_runs - self.runs
        if remaining <= 0:
            return 0.0
        return remaining / self.runs_per_sec()

    # -- rendering ---------------------------------------------------------

    def counts(self) -> Dict[str, Any]:
        """The fields the JSON heartbeat and the live ``/status``
        document share, spelled the same in both (docs/formats.md)."""
        eta = self.eta_seconds()
        record: Dict[str, Any] = {
            "total_runs": self.total_runs,
            "duplicates": self.duplicates,
            "failures": self.failures,
            "signatures": len(self.signatures),
            "runs_per_sec": round(self.runs_per_sec(), 3),
            "eta_seconds": None if eta is None else round(eta, 3),
            "elapsed_seconds": round(self.elapsed(), 3),
            "shards": {
                "done": self.shards_done,
                "total": self.shards_total,
                "failed": len(self.shards_failed),
                "requeued": self.shards_requeued,
                "resumed": self.shards_resumed,
            },
        }
        top = self.top_contended
        if top is not None:
            record["top_contended"] = {"monitor": top[0], "ticks": top[1]}
        return record

    def to_json_dict(self, final: bool = False) -> Dict[str, Any]:
        """One heartbeat as a JSON-safe dict (the ``--progress-json``
        record; ``runs`` counts every execution)."""
        record = {"runs": self.runs, **self.counts()}
        if self.classes:
            record["classes"] = dict(sorted(self.classes.items()))
        coverage = self.coverage_fraction
        if coverage is not None:
            record["coverage"] = round(coverage, 4)
        attempts = self.shard_attempts
        if attempts:
            record["attempts"] = attempts
        if final:
            record["final"] = True
        return record

    def render(self) -> str:
        total = f"/{self.total_runs}" if self.total_runs else ""
        parts = [f"runs {self.runs}{total}", f"{self.runs_per_sec():.1f}/s"]
        eta = self.eta_seconds()
        if eta is not None and eta > 0:
            parts.append(f"eta {format_duration(eta)}")
        parts.append(f"failures {self.failures}")
        parts.append(f"signatures {len(self.signatures)}")
        if self.classes:
            parts.append(f"classes {self._class_bit()}")
        coverage = self.coverage_fraction
        if coverage is not None:
            parts.append(f"coverage {coverage:.0%}")
        shard_bit = f"shards {self.shards_done}/{self.shards_total}"
        if self.shards_requeued:
            shard_bit += f" ({self.shards_requeued} requeued)"
        if self.shards_resumed:
            shard_bit += f" ({self.shards_resumed} resumed)"
        parts.append(shard_bit)
        attempts = self.shard_attempts
        if attempts:
            retry_bit = ",".join(
                f"{shard_id}x{count}" for shard_id, count in attempts.items()
            )
            parts.append(f"attempts {retry_bit}")
        top = self.top_contended
        if top is not None:
            parts.append(f"hot {top[0]}:{int(top[1])}")
        return " | ".join(parts)

    def render_final(self) -> str:
        """The one-line post-campaign summary."""
        parts = [
            f"done: {self.runs} runs in "
            f"{format_duration(self.elapsed())} "
            f"({self.runs_per_sec():.1f}/s)",
            f"failures {self.failures} "
            f"({len(self.signatures)} signature(s))",
        ]
        if self.classes:
            parts.append(f"classes {self._class_bit()}")
        coverage = self.coverage_fraction
        if coverage is not None:
            parts.append(f"coverage {coverage:.0%}")
        top = self.top_contended
        if top is not None:
            parts.append(f"hottest monitor {top[0]} ({int(top[1])} ticks)")
        return " | ".join(parts)

    def _class_bit(self) -> str:
        return ",".join(f"{code}:{n}" for code, n in sorted(self.classes.items()))

    def maybe_emit(self, force: bool = False) -> None:
        """Write a progress line at most once per ``interval`` seconds."""
        if self.stream is None:
            return
        now = self._clock()
        if not force and now - self._last_emit < self.interval:
            return
        self._last_emit = now
        if self.json_mode:
            self.stream.write(json.dumps(self.to_json_dict(), sort_keys=True) + "\n")
        else:
            self.stream.write(self.render() + "\n")
        self.stream.flush()

    def emit_final(self) -> None:
        """Write the final summary line (unconditionally)."""
        if self.stream is None:
            return
        if self.json_mode:
            line = json.dumps(self.to_json_dict(final=True), sort_keys=True)
        else:
            line = self.render_final()
        self.stream.write(line + "\n")
        self.stream.flush()
