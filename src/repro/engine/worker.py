"""Campaign worker: executes shards, streaming compact summaries in batches.

Runs in a long-lived child process (or inline, for ``workers=0``
debugging).  The orchestrator hands each pool worker one shard at a
time; a :class:`WorkerTask` carries the shard and a picklable
:class:`~repro.run.config.RunConfig` — nothing unpicklable crosses the
process boundary.  For each shard the worker builds **one**
:class:`~repro.run.executor.RunExecutor` from that config and drives the
matching explorer over the shard's seeds or DFS prefixes.  Every
completed run becomes one :class:`~repro.obs.live.frames.TelemetryFrame`
(the run's :class:`~repro.testing.explorer.RunSummary` plus shard-local
counters); the worker posts those frames in batches (see
:class:`_FrameBatcher` for the flush rules) and ends each shard with a
``done`` message.  The orchestrator treats a missing ``done`` as a
crashed or hung worker and requeues the shard.

The executor assembles the detector pipeline / instrumentation sink once
per shard and resets them between runs (the old per-run reconstruction
was pure allocation overhead — bench Ext-J measures the reduction).
Per-run wall-clock timeouts use ``SIGALRM`` where available (child
processes run in their main thread, so the signal contract holds); see
:func:`repro.run.executor.timed_runner`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.obs.live.frames import TelemetryFrame
from repro.run.config import RunConfig
from repro.run.executor import RunExecutor
from repro.testing.explorer import ExplorationRun, RunSummary
from repro.vm.kernel import RunStatus

from .shards import Shard

__all__ = [
    "FRAME_BATCH",
    "FRAME_FLUSH_S",
    "WorkerTask",
    "ShardOutcome",
    "execute_shard",
    "post_shard",
    "worker_main",
]

#: frames a worker holds at most before it posts them as one message
FRAME_BATCH = 64
#: seconds since a shard's last post after which the next completed run
#: posts every pending frame
FRAME_FLUSH_S = 0.05
#: seconds an idle worker waits for a shard before it checks that its
#: orchestrator is still alive
_IDLE_POLL_S = 1.0
_TIMEOUT = RunStatus.TIMEOUT.value
#: the batcher's clock (a module name, so tests can drive it)
_clock = time.monotonic


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


class _FrameBatcher:
    """One shard's frames on their way to the orchestrator, posted as
    ``("frames", shard_id, [frame_dict, ...])`` messages:

    * the shard's first frame goes at once, so the campaign (and a live
      view) sees progress as soon as one run completes;
    * later frames go once :data:`FRAME_BATCH` are pending or
      :data:`FRAME_FLUSH_S` seconds have passed since the last post
      (checked as each run completes);
    * :meth:`flush` posts whatever is pending, before ``done``/``fail``.
    """

    def __init__(self, shard_id: str, queue) -> None:
        self.shard_id = shard_id
        self.queue = queue
        self.runs = 0
        self.timeouts = 0
        self.pending: List[dict] = []
        self.posted_at: Optional[float] = None

    def add(self, summary: RunSummary) -> None:
        self.runs += 1
        if summary.status == _TIMEOUT:
            self.timeouts += 1
        frame = TelemetryFrame.for_run(
            self.shard_id, summary, runs=self.runs, timeouts=self.timeouts
        )
        self.pending.append(frame.to_dict())
        if (
            self.posted_at is None
            or len(self.pending) >= FRAME_BATCH
            or _clock() - self.posted_at >= FRAME_FLUSH_S
        ):
            self.flush()

    def flush(self) -> None:
        if self.pending:
            # a multiprocessing queue pickles later, in its feeder thread:
            # hand it this list and start a new one
            self.queue.put(("frames", self.shard_id, self.pending))
            self.pending = []
            self.posted_at = _clock()


def post_shard(task: WorkerTask, queue) -> None:
    """Execute one shard, posting its frames and then ``done`` or
    ``fail`` to ``queue``.  An :class:`Exception` is reported as
    ``fail``; anything else (an interrupt) is reported, then re-raised."""
    shard_id = task.shard.shard_id
    batcher = _FrameBatcher(shard_id, queue)
    try:
        outcome = execute_shard(task, emit=batcher.add)
        batcher.flush()
        queue.put(("done", shard_id, outcome.exhausted))
    except BaseException as exc:
        try:
            batcher.flush()
            queue.put(("fail", shard_id, f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        if not isinstance(exc, Exception):
            raise


def worker_main(inbox, queue) -> None:
    """Pool-process entry point: execute the :class:`WorkerTask`\\ s the
    orchestrator sends over ``inbox`` (a :func:`multiprocessing.Pipe`
    end), one at a time, until it sends ``None``; then return.

    Message protocol on ``queue`` (all tuples, all picklable):

    * ``("frames", shard_id, [frame_dict, ...])`` — a batch of
      :class:`~repro.obs.live.frames.TelemetryFrame` dicts, one per
      completed run in completion order, each carrying the run's summary
      plus shard-local counters (runs so far, timeouts) for live
      telemetry; see :class:`_FrameBatcher` for when a batch is posted;
    * ``("done", shard_id, exhausted)`` — the shard finished;
    * ``("fail", shard_id, error_text)`` — the shard raised; the
      orchestrator decides whether to requeue.

    A worker that dies without posting ``done``/``fail`` (hard crash,
    ``kill -9``, segfault in an extension) is detected by the orchestrator
    via process liveness — that is the crash-isolation contract.  An idle
    worker whose orchestrator has gone returns on its own.
    """
    parent = os.getppid()
    while True:
        try:
            while not inbox.poll(_IDLE_POLL_S):
                if os.getppid() != parent:
                    # orphaned: nobody drains the queue, so exit without
                    # waiting for it to flush
                    queue.cancel_join_thread()
                    return
            task = inbox.recv()
        except EOFError:
            return
        if task is None:
            return
        post_shard(task, queue)
