"""Campaign worker: executes one shard, streaming compact summaries.

Runs in a child process (or inline, for ``workers=0`` debugging).  The
worker receives a picklable :class:`~repro.run.config.RunConfig` —
nothing unpicklable crosses the process boundary — builds **one**
:class:`~repro.run.executor.RunExecutor` from it, and drives the
matching explorer over its shard's seeds or DFS prefixes, posting one
:class:`~repro.obs.live.frames.TelemetryFrame` (wrapping the run's
:class:`~repro.testing.explorer.RunSummary` plus shard-local counters)
per completed run and a final ``done`` message.  The orchestrator treats
a missing ``done`` as a crashed/hung worker and requeues the shard.

The executor assembles the detector pipeline / instrumentation sink once
per shard and resets them between runs (the old per-run reconstruction
was pure allocation overhead — bench Ext-J measures the reduction).
Per-run wall-clock timeouts use ``SIGALRM`` where available (child
processes run in their main thread, so the signal contract holds); see
:func:`repro.run.executor.timed_runner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.obs.live.frames import TelemetryFrame
from repro.run.config import RunConfig
from repro.run.executor import (  # noqa: F401 - re-exported for backcompat
    RunExecutor,
    RunTimeoutInterrupt,
    timed_runner as _timed_runner,
)
from repro.testing.explorer import ExplorationRun, RunSummary
from repro.vm.kernel import RunStatus

from .shards import Shard

__all__ = ["WorkerTask", "ShardOutcome", "execute_shard", "worker_main"]


@dataclass(frozen=True)
class WorkerTask:
    """Everything a worker needs to execute one shard, all picklable:
    the shard itself plus the :class:`RunConfig` describing how every
    run in it is assembled."""

    shard: Shard
    config: RunConfig
    stop_on_failure: bool = False


@dataclass
class ShardOutcome:
    """An inline-executed shard's aggregated result."""

    shard_id: str
    summaries: List[RunSummary] = field(default_factory=list)
    exhausted: bool = False


def execute_shard(
    task: WorkerTask,
    emit: Optional[Callable[[RunSummary], None]] = None,
) -> ShardOutcome:
    """Run one shard to completion in this process.

    ``emit`` is called with each run's summary as it completes (the
    streaming hook: the process worker posts to the result queue, inline
    mode feeds the orchestrator's aggregator directly).
    """
    executor = RunExecutor(task.config)
    outcome = ShardOutcome(shard_id=task.shard.shard_id)

    def on_run(run: ExplorationRun) -> None:
        summary = executor.summarize(run)
        outcome.summaries.append(summary)
        if emit is not None:
            emit(summary)

    shard = task.shard
    try:
        if shard.mode == "systematic":
            result = executor.explore(
                "systematic",
                roots=[list(p) for p in shard.prefixes],
                max_runs=shard.max_runs,
                stop_on_failure=task.stop_on_failure,
                on_run=on_run,
                keep_runs=False,
            )
            outcome.exhausted = result.exhausted
        elif shard.mode in ("random", "pct"):
            executor.explore(
                shard.mode,
                seeds=shard.seeds,
                stop_on_failure=task.stop_on_failure,
                on_run=on_run,
                keep_runs=False,
            )
        else:
            raise ValueError(f"unknown shard mode {shard.mode!r}")
    finally:
        # the shard's last run, freed before the next shard's first
        executor.release()
    return outcome


def worker_main(task: WorkerTask, queue) -> None:
    """Child-process entry point: execute the shard, streaming messages.

    Message protocol (all tuples, all picklable):

    * ``("frame", shard_id, frame_dict)`` — one
      :class:`~repro.obs.live.frames.TelemetryFrame` per completed run,
      carrying the run's summary plus shard-local counters (runs so far,
      timeouts) for live telemetry;
    * ``("done", shard_id, exhausted)`` — the shard finished;
    * ``("fail", shard_id, error_text)`` — the shard raised; the
      orchestrator decides whether to requeue.

    A worker that dies without posting ``done``/``fail`` (hard crash,
    ``kill -9``, segfault in an extension) is detected by the orchestrator
    via process liveness — that is the crash-isolation contract.
    """
    shard_id = task.shard.shard_id
    runs = 0
    timeouts = 0

    def emit(summary: RunSummary) -> None:
        nonlocal runs, timeouts
        runs += 1
        if summary.status == RunStatus.TIMEOUT.value:
            timeouts += 1
        frame = TelemetryFrame.for_run(
            shard_id, summary, runs=runs, timeouts=timeouts
        )
        queue.put(("frame", shard_id, frame.to_dict()))

    try:
        outcome = execute_shard(task, emit=emit)
        queue.put(("done", shard_id, outcome.exhausted))
    except BaseException as exc:  # noqa: BLE001 - report, then die quietly
        try:
            queue.put(("fail", shard_id, f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
