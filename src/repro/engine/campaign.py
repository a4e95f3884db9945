"""Campaign orchestration: parallel, resumable schedule exploration.

A *campaign* is a budgeted sweep of a program's schedule space — the
paper's "how many schedules until the bug shows?" question (Section 6 /
Ext-B) run at scale.  The orchestrator:

* plans the schedule space into :class:`~repro.engine.shards.Shard`\\ s
  (seed ranges for random/PCT, DFS prefix partitions for systematic);
* fans shards out over a ``multiprocessing`` worker pool with crash
  isolation — a worker that dies or hangs marks its shard failed and the
  shard is requeued with bounded retries;
* merges streamed :class:`~repro.testing.explorer.RunSummary` messages,
  deduping by decision-sequence hash and folding per-arc coverage hits
  into one mergeable :class:`~repro.coverage.matrix.CoverageMatrix`;
* stops early on configurable goals (first failure, full arc coverage)
  and journals every completed shard to a JSONL checkpoint so a killed
  campaign resumes without re-executing journaled work;
* reports every distinct failure as a *replayable artifact* — a seed or
  decision sequence that ``repro explore`` (via the VM's
  ``ReplayScheduler``) reproduces in one command.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.faults.plan import FaultPlan
from repro.obs.live.frames import TelemetryFrame
from repro.obs.metrics import MetricsRegistry
from repro.run.config import DETECTOR_ORDER, RunConfig, RunConfigError, _coerce_faults
from repro.run.executor import RunExecutor
from repro.testing.explorer import RunSummary, wilson_interval
from repro.vm.kernel import RunStatus

from .journal import CampaignJournal
from .progress import ProgressTracker, state_view
from .shards import Shard, plan_seed_shards, plan_systematic_shards
from .worker import WorkerTask, execute_shard, worker_main

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.live.aggregate import LiveAggregator

__all__ = [
    "CampaignError",
    "CampaignSpec",
    "CampaignResult",
    "ReplayArtifact",
    "run_campaign",
]

_MODES = ("random", "pct", "systematic")
#: the modes whose runs are named by a seed
_SEEDED_MODES = ("random", "pct")
# read on every merged run (an enum member's ``.value`` is a property read)
_DEADLOCK = RunStatus.DEADLOCK.value
_GOALS = ("budget", "first-failure", "first-deadlock", "coverage")

#: Pseudo shard id for the systematic planner's own expansion runs.
PLAN_SHARD_ID = "plan"

#: Relaunch backoff for crash-requeued shards: base * 2^(attempt-1)
#: seconds, capped — a shard that keeps killing its worker (OOM, native
#: crash) must not hog a pool slot in a tight relaunch loop.
_REQUEUE_BACKOFF_BASE = 0.5
_REQUEUE_BACKOFF_CAP = 15.0


class CampaignError(ValueError):
    """A campaign spec or journal is unusable."""


@dataclass(frozen=True)
class CampaignSpec:
    """Everything that defines a campaign.

    The *schedule space* fields (everything except ``workers``,
    ``run_timeout``, ``max_retries``, and ``journal_path``) are hashed
    into the fingerprint that guards ``--resume``: you may resume with a
    different worker count or timeout, but not a different space.
    """

    factory: str
    mode: str = "random"
    budget: int = 200
    workers: int = 1
    shard_size: int = 25
    seed_start: int = 0
    goal: str = "budget"
    coverage: Optional[str] = None  # "module:Class" whose CoFG arcs to track
    #: run the streaming detector pipeline on every run
    detect: bool = False
    #: explicit detector names for the pipeline (overrides the default
    #: set when non-empty; implies ``detect``) — how corpus sweeps opt
    #: into the ``"reentry"`` detector without changing ``"all"``
    detectors: Tuple[str, ...] = ()
    #: kernel trace retention ("full" | "none"); "none" requires detect
    trace_mode: str = "full"
    #: attach an instrumentation sink to every run (per-run
    #: metrics record rides inside each RunSummary and the journal)
    metrics: bool = False
    run_timeout: float = 10.0
    max_retries: int = 2
    max_depth: int = 400
    branch: str = "shallow"
    pct_depth: int = 3
    pct_expected_steps: int = 200
    journal_path: Optional[str] = None
    #: write the merged campaign registry here as metrics JSONL
    metrics_out: Optional[str] = None
    #: write the merged campaign registry here as Prometheus text
    metrics_prom: Optional[str] = None
    #: component registry name, for template workloads (``factory="pc"``)
    component: Optional[str] = None
    #: per-step spurious wake-up probability for every run (0.0 = off)
    spurious_rate: float = 0.0
    #: deterministic fault plan injected into every run (a
    #: :class:`~repro.faults.FaultPlan`, its dict form, or a plan name)
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        # Asking for a metrics export implies collecting metrics: the old
        # behaviour (error without --metrics) made the flag pair a trap.
        if (self.metrics_out or self.metrics_prom) and not self.metrics:
            object.__setattr__(self, "metrics", True)
        if self.detectors and not self.detect:
            object.__setattr__(self, "detect", True)
        try:
            object.__setattr__(self, "faults", _coerce_faults(self.faults))
        except RunConfigError as exc:
            raise CampaignError(str(exc)) from None

    def validate(self) -> None:
        if self.mode not in _MODES:
            raise CampaignError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.goal not in _GOALS:
            raise CampaignError(f"goal must be one of {_GOALS}, got {self.goal!r}")
        if self.goal == "coverage" and not self.coverage:
            raise CampaignError("goal 'coverage' requires a coverage component")
        if self.budget <= 0:
            raise CampaignError(f"budget must be positive, got {self.budget}")
        if self.shard_size <= 0:
            raise CampaignError(f"shard_size must be positive, got {self.shard_size}")
        if self.workers < 0:
            raise CampaignError(f"workers must be >= 0, got {self.workers}")
        # Everything run-shaped (workload/component/detector names,
        # trace_mode, coverage coupling) is the run layer's business.
        try:
            self.run_config().validate()
        except RunConfigError as exc:
            raise CampaignError(str(exc)) from None

    def fingerprint(self) -> str:
        """Stable hash of the schedule-space-defining fields."""
        space = {
            "factory": self.factory,
            "mode": self.mode,
            "budget": self.budget,
            "shard_size": self.shard_size,
            "seed_start": self.seed_start,
            "goal": self.goal,
            "coverage": self.coverage,
            # detection is part of the space: it decides what the journal
            # records, and early aborts change how far each run executes
            "detect": self.detect,
            "trace_mode": self.trace_mode,
            # metrics likewise decides what journal lines carry, so a
            # resumed campaign must agree on it
            "metrics": self.metrics,
            "max_depth": self.max_depth,
            "branch": self.branch,
            "pct_depth": self.pct_depth,
            "pct_expected_steps": self.pct_expected_steps,
        }
        if self.component is not None:
            # only fingerprinted when set, so pre-existing journals (from
            # before template workloads) still resume cleanly
            space["component"] = self.component
        if self.detectors:
            # same backwards-compatible pattern as component above
            space["detectors"] = list(self.detectors)
        if self.spurious_rate:
            # the environment is part of the schedule space: resuming with
            # a different rate (or plan) would mix incompatible runs
            space["spurious_rate"] = self.spurious_rate
        if self.faults is not None:
            space["faults"] = self.faults.fingerprint_key()
        raw = json.dumps(space, sort_keys=True)
        return hashlib.sha256(raw.encode()).hexdigest()

    def run_config(self) -> RunConfig:
        """The run-layer view of this campaign: how every run in every
        shard is assembled (shipped to workers inside each WorkerTask)."""
        return RunConfig(
            workload=self.factory,
            component=self.component,
            scheduler=self.mode,
            detect=self.detectors if self.detectors else self.detect,
            trace_mode=self.trace_mode,
            metrics=self.metrics,
            timeout=self.run_timeout,
            coverage=self.coverage,
            max_depth=self.max_depth,
            branch=self.branch,
            pct_depth=self.pct_depth,
            pct_expected_steps=self.pct_expected_steps,
            spurious_rate=self.spurious_rate,
            faults=self.faults,
        )

    @classmethod
    def from_run_config(cls, config: RunConfig, **kwargs: Any) -> "CampaignSpec":
        """Build a campaign over a :class:`RunConfig` (the scenario-file
        path); ``kwargs`` are the campaign-level fields (budget, workers,
        goal, journal_path, ...)."""
        mode = config.scheduler if config.scheduler in _MODES else "random"
        # A custom detector set (anything but off / the full default set)
        # must survive the round trip; the default set stays spelled as
        # ``detect=True`` so existing journals keep their fingerprint.
        custom = (
            config.detect
            if config.detect and set(config.detect) != set(DETECTOR_ORDER)
            else ()
        )
        return cls(
            factory=config.workload,
            component=config.component,
            mode=mode,
            detect=bool(config.detect),
            detectors=custom,
            trace_mode=config.trace_mode,
            metrics=config.metrics,
            run_timeout=config.timeout,
            coverage=config.coverage,
            max_depth=config.max_depth,
            branch=config.branch,
            pct_depth=config.pct_depth,
            pct_expected_steps=config.pct_expected_steps,
            spurious_rate=config.spurious_rate,
            faults=config.faults,
            **kwargs,
        )

    def worker_task(self, shard: Shard) -> WorkerTask:
        return WorkerTask(
            shard=shard,
            config=self.run_config(),
            stop_on_failure=(self.goal == "first-failure"),
        )


@dataclass(frozen=True)
class ReplayArtifact:
    """A one-command reproduction recipe for an observed failure."""

    signature: Tuple[str, Tuple[str, ...]]
    seed: Optional[int]
    decisions: Tuple[int, ...]
    mode: str
    factory: str
    pct_depth: int = 3
    pct_expected_steps: int = 200
    component: Optional[str] = None
    spurious_rate: float = 0.0
    faults_name: Optional[str] = None

    def command(self) -> str:
        """The ``repro explore`` invocation that reproduces this failure
        deterministically (seed replay for random/PCT, exact
        decision-index replay via ReplayScheduler otherwise)."""
        target = self.factory
        if self.component:
            target += f" --component {self.component}"
        if self.spurious_rate:
            target += f" --spurious-rate {self.spurious_rate}"
        if self.faults_name:
            target += f" --faults {self.faults_name}"
        if self.mode == "random" and self.seed is not None:
            return (
                f"python -m repro explore {target} "
                f"--mode random --seeds {self.seed}"
            )
        if self.mode == "pct" and self.seed is not None:
            return (
                f"python -m repro explore {target} --mode pct "
                f"--seeds {self.seed} --pct-depth {self.pct_depth} "
                f"--pct-steps {self.pct_expected_steps}"
            )
        decisions = ",".join(str(d) for d in self.decisions)
        return (
            f"python -m repro explore {target} "
            f"--mode replay --decisions {decisions}"
        )


@dataclass
class CampaignResult:
    """Merged outcome of a campaign (unique schedules only).

    Every count is a view of :attr:`progress`, the campaign state the
    orchestrator folds each merged run and shard transition into once.
    """

    spec: CampaignSpec
    summaries: List[RunSummary] = field(default_factory=list)
    progress: ProgressTracker = field(default_factory=ProgressTracker, repr=False)
    exhausted: bool = False
    goal_reached: Optional[str] = None
    wall_time: float = 0.0

    duplicates = state_view("duplicates", "runs discarded as duplicate schedules")
    shards_total = state_view("shards_total", "shards planned")
    shards_completed = state_view("shards_done", "shards completed or resumed")
    shards_failed = state_view("shards_failed", "ids of shards out of retries")
    shards_resumed = state_view("shards_resumed", "shards merged from the journal")
    shards_requeued = state_view("shards_requeued", "crash requeues")
    coverage = state_view("coverage", "the CoverageMatrix, when tracked")
    class_counts = state_view("classes", "failure class -> unique schedules with it")

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """Merged per-run metrics (unique schedules only; None unless the
        spec ran with ``metrics=True``)."""
        return self.progress.metrics if self.spec.metrics else None

    @property
    def n_runs(self) -> int:
        """Unique schedules merged (journaled + fresh)."""
        return len(self.summaries)

    @property
    def n_executed(self) -> int:
        """All run executions, including duplicate schedules."""
        return len(self.summaries) + self.duplicates

    def statuses(self) -> Counter:
        return Counter(self.progress.statuses)

    def failures(self) -> List[RunSummary]:
        return [s for s in self.summaries if not s.ok]

    def distinct_failure_signatures(self) -> List[Tuple[str, Tuple[str, ...]]]:
        return list(self.progress.signatures)

    def failure_rate(self) -> float:
        if not self.summaries:
            return 0.0
        return self.progress.failures / len(self.summaries)

    def failure_rate_interval(self, z: float = 1.96) -> Tuple[float, float]:
        return wilson_interval(self.progress.failures, len(self.summaries), z)

    def first_failure(self) -> Optional[RunSummary]:
        for s in self.summaries:
            if not s.ok:
                return s
        return None

    def replay_artifacts(self) -> List[ReplayArtifact]:
        """One replay recipe per distinct failure signature.  A random or
        PCT campaign replays each signature's lowest seed, in seed order,
        so a pooled campaign reports the seeds an inline one does,
        whatever order its runs arrive in; a systematic campaign replays
        the first summary merged with each signature."""
        failures = self.failures()
        if self.spec.mode in _SEEDED_MODES:
            failures.sort(key=lambda s: s.seed)
        firsts: Dict[Tuple[str, Tuple[str, ...]], RunSummary] = {}
        for s in failures:
            firsts.setdefault(s.signature, s)
        return [
            ReplayArtifact(
                signature=s.signature,
                seed=s.seed,
                decisions=s.decisions,
                mode=self.spec.mode if s.seed is not None else "systematic",
                factory=self.spec.factory,
                pct_depth=self.spec.pct_depth,
                pct_expected_steps=self.spec.pct_expected_steps,
                component=self.spec.component,
                spurious_rate=self.spec.spurious_rate,
                faults_name=(
                    self.spec.faults.name if self.spec.faults is not None else None
                ),
            )
            for s in firsts.values()
        ]

    def coverage_fraction(self) -> Optional[float]:
        if self.coverage is None:
            return None
        return self.coverage.coverage_fraction()

    def build_metrics(self) -> MetricsRegistry:
        """Campaign-level registry: the merged per-run series plus the
        campaign's own counters (``campaign_runs_total`` by status,
        duplicates, failure classes, shard accounting, throughput).

        Pure: builds a fresh registry each call, leaving :attr:`metrics`
        untouched — safe to call repeatedly (exporters, tests).
        """
        from repro.obs.live.aggregate import campaign_registry

        info = {
            "fingerprint": self.spec.fingerprint(),
            "factory": self.spec.factory,
            "mode": self.spec.mode,
        }
        rate = self.n_executed / self.wall_time if self.wall_time > 0 else None
        return campaign_registry(self.progress, info, rate)

    def describe(self) -> str:
        status_counts = ", ".join(
            f"{status}: {count}" for status, count in sorted(self.statuses().items())
        )
        lines = [
            f"campaign {self.spec.factory!r} mode={self.spec.mode} "
            f"budget={self.spec.budget} workers={self.spec.workers}"
            + (" (exhaustive)" if self.exhausted else ""),
            f"  runs: {self.n_executed} executed, {self.n_runs} unique schedules"
            + (f" ({self.duplicates} duplicates)" if self.duplicates else ""),
            f"  outcomes: {status_counts or 'none'}",
        ]
        if self.summaries:
            lo, hi = self.failure_rate_interval()
            lines.append(
                f"  failures: {self.progress.failures} ({self.failure_rate():.1%}), "
                f"{len(self.progress.signatures)} distinct signature(s), "
                f"95% CI [{lo:.1%}, {hi:.1%}]"
            )
        if self.class_counts:
            class_bits = ", ".join(
                f"{code}: {count}"
                for code, count in sorted(self.class_counts.items())
            )
            lines.append(f"  failure classes: {class_bits}")
        elif self.spec.detect:
            lines.append("  failure classes: none detected")
        frac = self.coverage_fraction()
        if frac is not None:
            full_at = self.coverage.runs_to_full_coverage()
            lines.append(
                f"  coverage: {frac:.0%} of CoFG arcs"
                + (f" (full after {full_at} runs)" if full_at else "")
            )
        shard_bit = (
            f"  shards: {self.shards_completed}/{self.shards_total} completed"
        )
        extras = []
        if self.shards_resumed:
            extras.append(f"{self.shards_resumed} resumed")
        if self.shards_requeued:
            extras.append(f"{self.shards_requeued} requeued")
        if self.shards_failed:
            extras.append(f"{len(self.shards_failed)} failed")
        if extras:
            shard_bit += f" ({', '.join(extras)})"
        lines.append(shard_bit)
        rate = self.n_executed / self.wall_time if self.wall_time > 0 else 0.0
        lines.append(f"  wall time: {self.wall_time:.2f}s ({rate:.1f} runs/s)")
        if self.goal_reached:
            lines.append(f"  goal reached: {self.goal_reached}")
        for artifact in self.replay_artifacts():
            status, stuck = artifact.signature
            stuck_bit = f" (stuck: {', '.join(stuck)})" if stuck else ""
            lines.append(f"  failure {status}{stuck_bit} — replay:")
            lines.append(f"    {artifact.command()}")
        return "\n".join(lines)


def _without_metrics(summary: RunSummary) -> RunSummary:
    """``summary`` as the result keeps it: without its metrics record,
    which :meth:`ProgressTracker.note_run` folds instead.  A copy of the
    instance dict (fields, and the schedule key if it was read), not
    :func:`dataclasses.replace`, which runs the whole constructor."""
    if summary.metrics is None:
        return summary
    kept = object.__new__(type(summary))
    kept.__dict__.update(vars(summary), metrics=None)
    return kept


class _Aggregator:
    """The campaign's single dedup point: drops repeated schedules from
    the result, sets the goal flags, and hands every merged run — with
    its duplicate verdict — to the campaign state's one fold
    (:meth:`ProgressTracker.note_run`), then to the live view when one
    is attached.  The result keeps each unique summary without its
    metrics record, which that fold consumes; in a random or PCT
    campaign, a failing schedule's summary is that of its lowest seed.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        progress: ProgressTracker,
        live: Optional["LiveAggregator"] = None,
    ) -> None:
        self.spec = spec
        self.progress = progress
        self.live = live
        self.result = CampaignResult(spec=spec, progress=progress)
        #: the decisions of every schedule merged so far
        self._seen: set = set()
        #: failing schedule's decisions -> the index of its summary in
        #: the result; filled in a random or PCT campaign only
        self._failing: Dict[Any, int] = {}
        self._seeded = spec.mode in _SEEDED_MODES
        # goal flags, set as unique summaries merge (never rescanned)
        self._failed = False
        self._deadlocked = False
        if spec.coverage:
            from repro.coverage.matrix import CoverageMatrix
            from repro.run.executor import coverage_cofgs

            progress.coverage = CoverageMatrix(coverage_cofgs(spec.coverage))

    def merge(
        self,
        summary: RunSummary,
        shard_id: str = "",
        frame: Optional[TelemetryFrame] = None,
    ) -> None:
        # the decisions themselves are the exact key of a schedule (a
        # tuple does not keep its hash: adding and comparing sizes hashes
        # it once)
        key = summary.decisions
        seen = self._seen
        known = len(seen)
        seen.add(key)
        duplicate = len(seen) == known
        summaries = self.result.summaries
        if duplicate:
            # a failing schedule keeps its lowest seed, the one an inline
            # run merges first and a pool may merge last
            index = self._failing.get(key)
            if index is not None and summary.seed < summaries[index].seed:
                summaries[index] = _without_metrics(summary)
        else:
            if not summary.ok:
                self._failed = True
                if self._seeded:
                    self._failing[key] = len(summaries)
            summaries.append(_without_metrics(summary))
            detection = summary.detection
            if summary.status == _DEADLOCK or (
                detection and detection.get("deadlock_cycle")
            ):
                self._deadlocked = True
        self.progress.note_run(summary, duplicate=duplicate)
        if self.live is not None:
            self.live.note_run(
                summary, duplicate=duplicate, shard_id=shard_id, frame=frame
            )

    def goal_reached(self) -> Optional[str]:
        """The goal met so far, if any: O(1) for the failure and deadlock
        goals, whose flags :meth:`merge` sets."""
        if self.spec.goal == "first-failure" and self._failed:
            return "first-failure"
        if self.spec.goal == "first-deadlock" and self._deadlocked:
            return "first-deadlock"
        if self.spec.goal == "coverage" and (self.progress.coverage_fraction or 0) >= 1:
            return "coverage"
        return None


def _plan(spec: CampaignSpec):
    """Plan the shard list; returns (shards, planner_summaries, exhausted)."""
    if spec.mode in _SEEDED_MODES:
        shards = plan_seed_shards(
            spec.mode, spec.budget, spec.shard_size, spec.seed_start
        )
        return shards, [], False
    # plan through an executor, as a worker runs a shard: the planner's
    # runs are journaled and merged like any other, so they carry the
    # same detection, metrics and coverage
    executor = RunExecutor(spec.run_config())
    n_shards = max(1, spec.budget // spec.shard_size)
    try:
        plan = plan_systematic_shards(
            executor,
            budget=spec.budget,
            n_shards=n_shards,
            max_depth=spec.max_depth,
            branch=spec.branch,
            summarize=executor.summarize,
        )
    finally:
        executor.release()
    return plan.shards, plan.planner_summaries, plan.exhausted


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


@dataclass
class _Worker:
    """A pool process, its end of the shard inbox, and the shard it holds
    (None while idle) with that shard's deadline."""

    process: Any
    inbox: Any
    shard: Optional[Shard] = None
    deadline: float = 0.0
    dead_since: Optional[float] = None


def run_campaign(
    spec: CampaignSpec,
    resume: bool = False,
    progress: Optional[ProgressTracker] = None,
    telemetry: Optional["LiveAggregator"] = None,
) -> CampaignResult:
    """Execute (or resume) a campaign and return the merged result.

    ``telemetry`` attaches a live aggregator (see
    :mod:`repro.obs.live`): it receives every merged run and shard
    transition as the orchestrator processes them, and is closed when
    the campaign finishes — the substrate behind ``--serve``/``--dash``.
    """
    spec.validate()
    started = time.monotonic()
    shards, planner_summaries, plan_exhausted = _plan(spec)

    progress = progress or ProgressTracker(total_runs=spec.budget)
    progress.shards_total = len(shards)
    if telemetry is not None:
        telemetry.info.setdefault("fingerprint", spec.fingerprint())
        telemetry.info.setdefault("factory", spec.factory)
        telemetry.info.setdefault("mode", spec.mode)
        telemetry.info.setdefault("workers", spec.workers)
        if progress.total_runs is None:
            progress.total_runs = spec.budget
        telemetry.bind(progress)
    aggregator = _Aggregator(spec, progress, live=telemetry)
    result = aggregator.result

    # -- journal / resume --------------------------------------------------
    journal: Optional[CampaignJournal] = None
    completed: Dict[str, List[RunSummary]] = {}
    exhausted_flags: Dict[str, bool] = {}
    if resume and not spec.journal_path:
        raise CampaignError("resume requires a journal path")
    if spec.journal_path:
        journal = CampaignJournal(spec.journal_path)
        if resume:
            state = journal.resume(spec.fingerprint())
            completed = dict(state.shards)
            exhausted_flags.update(state.exhausted)
        else:
            journal.start(
                spec.fingerprint(),
                meta={"factory": spec.factory, "mode": spec.mode,
                      "budget": spec.budget},
            )

    try:
        planned_ids = {s.shard_id for s in shards}
        resumed_ids = set(completed) & (planned_ids | {PLAN_SHARD_ID})
        for shard_id in sorted(resumed_ids):
            for summary in completed[shard_id]:
                aggregator.merge(summary, shard_id=shard_id)
        progress.note_shards_resumed(sorted(resumed_ids - {PLAN_SHARD_ID}))

        # The systematic planner re-ran during _plan (its runs are the
        # price of rebuilding the deterministic shard list); merge them
        # only when they were not already journaled.
        if planner_summaries and PLAN_SHARD_ID not in completed:
            for summary in planner_summaries:
                aggregator.merge(summary, shard_id=PLAN_SHARD_ID)
            if journal is not None:
                journal.append_shard(PLAN_SHARD_ID, planner_summaries)

        pending = deque(s for s in shards if s.shard_id not in resumed_ids)
        goal = aggregator.goal_reached()
        if goal is None and pending:
            runner = _run_inline if spec.workers == 0 else _run_pool
            goal = runner(
                spec, pending, aggregator, journal, progress, exhausted_flags
            )
        if goal is None and spec.goal == "budget" and not result.shards_failed:
            goal = "budget"
        result.goal_reached = goal
        result.exhausted = plan_exhausted or (
            spec.mode == "systematic"
            and bool(shards)
            and result.shards_completed == result.shards_total
            and all(exhausted_flags.get(sid, False) for sid in planned_ids)
        )
    finally:
        if journal is not None:
            journal.close()
        result.wall_time = time.monotonic() - started
        progress.maybe_emit(force=True)
        progress.emit_final()
        if telemetry is not None:
            telemetry.close(goal=result.goal_reached)
    if spec.metrics_out or spec.metrics_prom:
        from repro import __version__
        from repro.obs.export import write_metrics_jsonl, write_prometheus

        registry = result.build_metrics()
        if spec.metrics_out:
            write_metrics_jsonl(
                registry,
                spec.metrics_out,
                meta={
                    "campaign": spec.fingerprint()[:12],
                    "fingerprint": spec.fingerprint(),
                    "factory": spec.factory,
                    "mode": spec.mode,
                    "runs": result.n_runs,
                    "shards": result.shards_total,
                    "repro_version": __version__,
                },
            )
        if spec.metrics_prom:
            write_prometheus(registry, spec.metrics_prom)
    return result


def _run_inline(
    spec: CampaignSpec,
    pending: "deque[Shard]",
    aggregator: _Aggregator,
    journal: Optional[CampaignJournal],
    progress: ProgressTracker,
    exhausted_flags: Dict[str, bool],
) -> Optional[str]:
    """Sequential in-process execution (``workers=0``): no isolation, no
    timeouts beyond the per-run alarm — the debug path."""
    merge = aggregator.merge
    while pending:
        shard = pending.popleft()
        shard_id = shard.shard_id
        # only the journal reads a shard's summaries once they are merged
        journaled: List[RunSummary] = []

        def emit(summary: RunSummary) -> None:
            if journal is not None:
                journaled.append(summary)
            merge(summary, shard_id=shard_id)

        outcome = execute_shard(spec.worker_task(shard), emit=emit)
        exhausted_flags[shard_id] = outcome.exhausted
        if journal is not None:
            journal.append_shard(shard_id, journaled, exhausted=outcome.exhausted)
        progress.note_shard_done(shard_id, exhausted=outcome.exhausted)
        progress.maybe_emit()
        goal = aggregator.goal_reached()
        if goal is not None:
            return goal
    return None


def _run_pool(
    spec: CampaignSpec,
    pending: "deque[Shard]",
    aggregator: _Aggregator,
    journal: Optional[CampaignJournal],
    progress: ProgressTracker,
    exhausted_flags: Dict[str, bool],
) -> Optional[str]:
    """The multiprocess orchestration loop: at most ``spec.workers``
    long-lived worker processes, each handed one shard at a time; crash
    isolation, shard deadlines, bounded retries, early goal stop."""
    from queue import Empty

    ctx = _mp_context()
    queue = ctx.Queue()
    workers: List[_Worker] = []
    #: shard id -> the worker holding it
    holding: Dict[str, _Worker] = {}
    buffers: Dict[str, List[RunSummary]] = {}
    retries: Dict[str, int] = {}
    #: shard id -> earliest monotonic time a requeued shard may relaunch
    retry_not_before: Dict[str, float] = {}
    goal: Optional[str] = None
    #: grace period between a worker dying and its shard being declared
    #: crashed, so in-flight queue messages (including "done") can drain.
    grace = 1.0

    def idle_worker() -> Optional[_Worker]:
        for worker in workers:
            if worker.shard is None:
                return worker
        if len(workers) >= spec.workers:
            return None
        # looked up here, not bound at import, so a wrapper installed on
        # this module's ``worker_main`` runs in every new worker
        reader, inbox = ctx.Pipe(duplex=False)
        process = ctx.Process(target=worker_main, args=(reader, queue), daemon=True)
        process.start()
        reader.close()
        worker = _Worker(process, inbox)
        workers.append(worker)
        return worker

    def hand(worker: _Worker, shard: Shard) -> bool:
        try:
            worker.inbox.send(spec.worker_task(shard))
        except OSError:
            return False  # died while idle: the liveness pass reaps it
        worker.shard = shard
        worker.deadline = (
            time.monotonic() + spec.run_timeout * max(1, shard.max_runs) + 30.0
        )
        holding[shard.shard_id] = worker
        buffers[shard.shard_id] = []
        return True

    def requeue_or_fail(shard: Shard, error: str = "") -> None:
        buffers.pop(shard.shard_id, None)
        attempt = retries.get(shard.shard_id, 0) + 1
        retries[shard.shard_id] = attempt
        if attempt <= spec.max_retries:
            backoff = min(
                _REQUEUE_BACKOFF_CAP, _REQUEUE_BACKOFF_BASE * 2 ** (attempt - 1)
            )
            retry_not_before[shard.shard_id] = time.monotonic() + backoff
            pending.append(shard)
            progress.note_shard_requeued(shard.shard_id)
        else:
            progress.note_shard_failed(shard.shard_id, error=error)

    def release(shard_id: str) -> Optional[Shard]:
        """The worker holding ``shard_id`` is idle again; returns the shard."""
        worker = holding.pop(shard_id, None)
        if worker is None:
            return None
        shard, worker.shard = worker.shard, None
        return shard

    def reap(worker: _Worker) -> None:
        """Drop a dead or overdue worker; requeue the shard it held."""
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5.0)
        worker.inbox.close()
        workers.remove(worker)
        if worker.shard is not None:
            holding.pop(worker.shard.shard_id, None)
            requeue_or_fail(worker.shard)

    def handle(kind: str, shard_id: str, payload) -> None:
        nonlocal goal
        if kind == "frames":
            # each run's summary wrapped with shard-local telemetry
            # counters, merged in completion order
            buffer = buffers.get(shard_id)
            for wired in payload:
                frame = TelemetryFrame.from_dict(wired)
                summary = frame.summary
                if summary is None:
                    continue
                if buffer is not None:
                    buffer.append(summary)
                aggregator.merge(summary, shard_id=shard_id, frame=frame)
                if goal is None:
                    goal = aggregator.goal_reached()
        elif kind == "done":
            exhausted_flags[shard_id] = bool(payload)
            summaries = buffers.pop(shard_id, [])
            if journal is not None:
                journal.append_shard(shard_id, summaries, exhausted=bool(payload))
            progress.note_shard_done(shard_id, exhausted=bool(payload))
            release(shard_id)
        elif kind == "fail":
            shard = release(shard_id)
            if shard is not None:
                requeue_or_fail(shard, error=str(payload))

    try:
        while (pending or holding) and goal is None:
            # Hand every eligible shard to an idle (or new) worker;
            # requeued shards still inside their backoff window rotate to
            # the back so they never block fresh work behind them.
            now = time.monotonic()
            for _ in range(len(pending)):
                shard = pending.popleft()
                if retry_not_before.get(shard.shard_id, 0.0) > now:
                    pending.append(shard)
                    continue
                worker = idle_worker()
                if worker is None or not hand(worker, shard):
                    pending.appendleft(shard)
                    break

            # Drain every available message before judging liveness, so a
            # cleanly finished worker is never mistaken for a crash.
            try:
                message = queue.get(timeout=0.05)
            except Empty:
                message = None
            while message is not None:
                handle(*message)
                try:
                    message = queue.get_nowait()
                except Empty:
                    message = None

            now = time.monotonic()
            for worker in list(workers):
                if not worker.process.is_alive():
                    if worker.shard is None:
                        reap(worker)
                    elif worker.dead_since is None:
                        worker.dead_since = now
                    elif now - worker.dead_since > grace:
                        # died without a done/fail message: hard crash
                        reap(worker)
                elif worker.shard is not None and now > worker.deadline:
                    reap(worker)
            progress.maybe_emit()
    finally:
        # idle workers stop by returning; busy ones (a goal was met, or
        # the orchestrator itself failed) are terminated
        for worker in workers:
            if worker.shard is None:
                try:
                    worker.inbox.send(None)
                except OSError:
                    pass
            elif worker.process.is_alive():
                worker.process.terminate()
        for worker in workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            worker.inbox.close()
        workers.clear()
        queue.close()
        queue.cancel_join_thread()
    return goal
