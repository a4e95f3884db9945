"""The four ledger workloads: what each runs, its output checks, its digest.

Every workload is a closed-loop batch job: a worker starts its next run
when the previous one finishes.  ``--seed`` sets ``CampaignSpec.seed_start``
for the three campaign workloads; ``corpus-sweep`` goes through
``sweep_corpus``, which fixes the seeds of every variant campaign to 0-7,
so the seed does not apply there.

This module imports ``repro``; the child process imports it only after it
has stamped its start time (see :mod:`ledger.child`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, Iterator, List, Optional

import repro.corpus as corpus
import repro.corpus.sweep as corpus_sweep
import repro.engine as engine
import repro.engine.campaign as engine_campaign
from repro.engine import CampaignSpec, ProgressTracker
from repro.obs.live import LiveAggregator
from repro.testing.explorer import wilson_interval

from ledger.pace import Mark, Pace, combined, rescale

__all__ = ["Outcome", "campaign_spec", "execute", "pinned_digest_problems"]

#: workloads whose inputs depend on --seed
SEEDED = ("pc-short", "prims-long", "clean-pool")

#: seeds per variant in corpus-sweep (sweep_corpus runs seeds 0..7)
CORPUS_SEEDS = 8
#: the corpus parents: every component with a sweep workload
CORPUS_PARENTS = tuple(corpus.CORPUS_DRIVERS)

#: full-size budgets, chosen for about 3 s per repeat on a 2-core box
_BUDGETS = {"pc-short": 1000, "prims-long": 10, "clean-pool": 1500}
#: clean-pool's pool size (the benchmark box has 2 cores)
POOL_WORKERS = 2
#: workload -> sha256 digest of its seed-0, full-size output
PINNED_DIGESTS = Path(__file__).resolve().parent / "digests.json"


def campaign_spec(name: str, seed: int, scale: float, workdir: str) -> CampaignSpec:
    """The campaign a workload runs (all but corpus-sweep)."""
    budget = max(1, round(_BUDGETS[name] * scale))
    if name == "pc-short":
        return CampaignSpec(
            factory="pc-bug",
            mode="random",
            budget=budget,
            shard_size=100,
            workers=0,
            seed_start=seed,
            detect=True,
            trace_mode="none",
            metrics=True,
        )
    if name == "prims-long":
        return CampaignSpec(
            factory="ledger.programs:prims_long",
            mode="random",
            budget=budget,
            shard_size=5,
            workers=0,
            seed_start=seed,
            trace_mode="full",
        )
    if name == "clean-pool":
        return CampaignSpec(
            factory="pc-ok",
            mode="random",
            goal="first-failure",
            budget=budget,
            shard_size=250,
            workers=POOL_WORKERS,
            seed_start=seed,
            detect=True,
            trace_mode="none",
            journal_path=os.path.join(workdir, "clean-pool.journal.jsonl"),
        )
    raise KeyError(name)


@dataclass
class Outcome:
    """What one execution of a workload did, and whether it was right."""

    #: budgeted runs, and those merged without a timeout (distinct seeds)
    attempted: int
    completed: int
    #: merged runs (duplicate schedules included) and their kernel steps
    executed: int
    steps: int
    #: merged runs a detector pipeline ended early
    aborted: int
    #: the pace mark at the first merged run
    first_merge: Mark
    unique: int
    requeued: int
    #: wall time of the run_campaign / sweep_corpus call
    wall_s: float
    #: CPU time of that call, pool workers included, in reference seconds
    #: (see :mod:`ledger.pace`; plain CPU seconds when nothing was paced)
    work_s: float
    #: pace bursts the pool workers took (0 when inline or unpaced)
    worker_bursts: int
    #: whether a worker pool ran the runs (they merge in arrival order)
    pooled: bool
    #: wall time of the whole workload body (corpus: generate+load+sweep)
    root_s: float
    #: this process's CPU time over the workload body
    cpu_s: float
    digest: str
    #: the CampaignResult, or the list of SweepResults
    result: Any
    problems: List[str] = field(default_factory=list)


class MergeLog:
    """Every run the campaign aggregators merge, seen through a
    :class:`ProgressTracker` subclass (``tracker``) that marks the first
    merge and records which budgeted runs completed without a timeout."""

    def __init__(self, pace: Pace) -> None:
        self.pace = pace
        self.first: Optional[Mark] = None
        self.executed = 0
        self.steps = 0
        self.aborted = 0
        self.trackers: List[ProgressTracker] = []
        self.tracker = self._tracker_class()

    def outcome(self, **fields: Any) -> Outcome:
        return Outcome(
            completed=sum(len(t.completed_seeds) for t in self.trackers),
            executed=self.executed,
            steps=self.steps,
            aborted=self.aborted,
            first_merge=self.first,
            **fields,
        )

    def _tracker_class(self) -> type:
        log = self

        class LedgerTracker(ProgressTracker):
            def __init__(self, *args: Any, **kwargs: Any) -> None:
                super().__init__(*args, **kwargs)
                self.completed_seeds: set = set()
                log.trackers.append(self)

            def note_run(self, summary, duplicate: bool = False) -> None:
                if log.first is None:
                    log.first = log.pace.mark()
                log.executed += 1
                log.steps += summary.steps
                if summary.detection and summary.detection.get("aborted"):
                    log.aborted += 1
                if summary.status != "timeout":
                    self.completed_seeds.add(summary.seed)
                super().note_run(summary, duplicate=duplicate)

        return LedgerTracker


def execute(
    name: str,
    seed: int,
    scale: float,
    workdir: str,
    region: Callable[[], ContextManager[Any]] = contextlib.nullcontext,
    workers: Optional[int] = None,
    pace: Optional[Pace] = None,
) -> Outcome:
    """Run one workload once, in this process, and check its output.

    ``region`` brackets the workload body (the traced run opens its root
    span there); ``workers`` overrides a campaign's pool size; ``pace``,
    if running, rescales ``work_s`` and paces the pool workers too.
    """
    merges = MergeLog(pace or Pace())
    if name == "corpus-sweep":
        outcome = _execute_corpus(scale, workdir, merges, region)
    else:
        spec = campaign_spec(name, seed, scale, workdir)
        if workers is not None:
            spec = dataclasses.replace(spec, workers=workers)
        live = LiveAggregator() if name == "clean-pool" else None
        outcome = _execute_campaign(spec, live, merges, region, Path(workdir, "pace"))
    outcome.problems.extend(check(name, outcome))
    return outcome


@contextlib.contextmanager
def paced_workers(directory: Path) -> Iterator[None]:
    """Pace every pool worker started inside; each saves its bursts in
    ``directory`` as it ends, before the pool joins it."""
    original = engine_campaign.worker_main

    def worker_main(task, queue) -> None:
        pace = Pace().start()
        try:
            original(task, queue)
        finally:
            pace.stop()
            pace.save(directory / f"{os.getpid()}.json")

    directory.mkdir(exist_ok=True)
    engine_campaign.worker_main = worker_main
    try:
        yield
    finally:
        engine_campaign.worker_main = original


def _execute_campaign(
    spec: CampaignSpec, live, merges: MergeLog, region, pace_dir: Path
) -> Outcome:
    progress = merges.tracker(total_runs=spec.budget, stream=None)
    pace = merges.pace
    pool_paced = spec.workers > 0 and pace.running
    with region(), paced_workers(pace_dir) if pool_paced else contextlib.nullcontext():
        workers0 = children_cpu_s()
        cpu0 = time.process_time()
        started = time.perf_counter()
        begin = pace.mark()
        result = engine.run_campaign(spec, progress=progress, telemetry=live)
        end = pace.mark()
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu0
        # the pool joins its workers before run_campaign returns
        workers = children_cpu_s() - workers0
    paced = combined(pace_dir.glob("*.json"))
    work = pace.reference_s(begin, end) + rescale(
        workers - paced.spent, [(paced.count, paced.inverse), (pace.count, pace.inverse)]
    )
    return merges.outcome(
        attempted=spec.budget,
        unique=result.n_runs,
        requeued=result.shards_requeued,
        wall_s=wall,
        work_s=work,
        worker_bursts=paced.count,
        pooled=spec.workers > 0,
        root_s=wall,
        cpu_s=cpu,
        digest=campaign_digest(result.summaries),
        result=result,
    )


def _execute_corpus(scale, workdir, merges, region) -> Outcome:
    sweep_dir = os.path.join(workdir, "sweep")
    # sweep_corpus builds one tracker per variant campaign
    original_tracker = corpus_sweep.ProgressTracker
    corpus_sweep.ProgressTracker = merges.tracker
    try:
        with region():
            cpu0 = time.process_time()
            started = time.perf_counter()
            records = corpus.generate_corpus(list(CORPUS_PARENTS))
            # smaller scales keep an evenly spaced subset (index 0 is a control)
            records = records[:: max(1, round(1 / scale))]
            corpus.load_corpus(records)
            swept, begin = time.perf_counter(), merges.pace.mark()
            results = corpus.sweep_corpus(records, sweep_dir, seeds=CORPUS_SEEDS)
            end, finished = merges.pace.mark(), time.perf_counter()
            cpu = time.process_time() - cpu0
    finally:
        corpus_sweep.ProgressTracker = original_tracker
    results_path = os.path.join(workdir, "results.jsonl")
    corpus.write_results(results, results_path, seeds=CORPUS_SEEDS)
    with open(results_path, encoding="utf-8") as handle:
        lines = sorted(handle.read().splitlines())
    return merges.outcome(
        attempted=len(records) * CORPUS_SEEDS,
        unique=sum(r.runs for r in results),
        requeued=0,
        wall_s=finished - swept,
        work_s=merges.pace.reference_s(begin, end),
        worker_bursts=0,
        pooled=False,
        root_s=finished - started,
        cpu_s=cpu,
        digest=hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        result=results,
    )


def children_cpu_s() -> float:
    """CPU time of this process's ended and joined child processes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def campaign_digest(summaries) -> str:
    """sha256 over the sorted (schedule_key, status, classes, steps) rows
    of the merged unique runs — independent of merge order."""
    rows = sorted(
        json.dumps([s.schedule_key, s.status, list(s.detected_classes), s.steps])
        for s in summaries
    )
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def pinned_digest_problems(name: str, seed: int, scale: float, digest: str) -> List[str]:
    """Compare with the digest pinned for seed 0 at full size."""
    if scale != 1.0 or (seed != 0 and name in SEEDED):
        return []
    pinned = json.loads(PINNED_DIGESTS.read_text()).get(name)
    if pinned is not None and pinned != digest:
        return [f"digest {digest[:16]} differs from pinned seed-0 {pinned[:16]}"]
    return []


def check(name: str, outcome: Outcome) -> List[str]:
    """Seed-independent output invariants; returns the violated ones."""
    problems: List[str] = []
    if name == "corpus-sweep":
        convicted = [r.variant_id for r in outcome.result if r.is_control and r.detected]
        if convicted:
            problems.append(f"controls convicted: {convicted}")
        return problems
    result = outcome.result
    failures = len(result.failures())
    if name == "pc-short":
        if not failures or not result.class_counts:
            problems.append("no failing, detected runs")
        if set(result.class_counts) - {"FF-T5"}:
            problems.append(f"classes other than FF-T5: {dict(result.class_counts)}")
        # the failing share is a binomial estimate: its 95% interval must
        # reach into [5%, 20%] (at full size the interval is ~±1.5%)
        low, high = wilson_interval(failures, result.n_runs)
        if high < 0.05 or low > 0.20:
            problems.append(f"failing share {failures}/{result.n_runs} outside 5-20%")
    elif name == "prims-long":
        statuses = dict(result.statuses())
        if set(statuses) != {"completed"}:
            problems.append(f"runs not all completed: {statuses}")
    elif name == "clean-pool":
        if failures or result.class_counts:
            problems.append(
                f"clean component failed: {failures} runs, {dict(result.class_counts)}"
            )
        if result.goal_reached is not None:
            problems.append(f"goal reached: {result.goal_reached}")
        if result.n_executed != outcome.attempted:
            problems.append(f"executed {result.n_executed} of {outcome.attempted} runs")
    return problems
