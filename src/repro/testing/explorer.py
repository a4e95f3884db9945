"""Schedule exploration: systematic DFS and random/PCT fuzzing.

The VM funnels every nondeterministic choice through ``Scheduler.pick``,
so exploring schedules is exploring a decision tree:

* :func:`explore_systematic` — stateless depth-first enumeration: replay a
  decision prefix, let FIFO fill the suffix, then branch on the untried
  alternatives of every decision past the prefix.  Exhaustive up to
  ``max_depth`` decisions, bounded by ``max_runs``.
* :func:`explore_random` — Stoller-style randomized scheduling, one run
  per seed (the reproducible stand-in for rerunning on a real JVM).
* :func:`explore_pct` — one PCT trial per seed (random priorities plus
  ``d-1`` demotion points; see :mod:`repro.vm.pct`).

No explorer wraps its scheduler: decisions and their option counts come
from the kernel's record (``choice_log``, ``option_counts()``).

All three return :class:`ExplorationResult`, which aggregates statuses
and failure signatures — the data of the Ext-B study (how many
schedules until the seeded bug is exposed?).  Coverage saturation is the
campaign's ``goal="coverage"`` (:mod:`repro.engine`).

Two hooks exist for callers that process runs as a *stream* rather than
an in-memory list (the parallel campaign engine, :mod:`repro.engine`):

* ``on_run`` — a callback invoked with each :class:`ExplorationRun` the
  moment it completes;
* ``keep_runs=False`` — drop full :class:`~repro.vm.kernel.RunResult`
  objects (and their traces) after the callback, so a million-run worker
  stays at constant memory.

:class:`RunSummary` is the compact, JSON-serializable projection of a run
that crosses process boundaries: status, decisions, failure signature,
and optional per-arc coverage hits — everything the orchestrator needs,
nothing the pickle layer would choke on.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.vm.kernel import Kernel, RunResult, RunStatus
from repro.vm.pct import PCTScheduler
from repro.vm.scheduler import (
    FifoScheduler,
    RandomScheduler,
    ReplayScheduler,
    Scheduler,
)

__all__ = [
    "ExplorationRun",
    "ExplorationResult",
    "RunSummary",
    "explore_systematic",
    "explore_random",
    "explore_pct",
    "wilson_interval",
]

# Read on every run: bound once (an enum member's ``.value`` is a
# Python-level property read on 3.11, and so is a member lookup on its
# class before 3.12).
_COMPLETED = RunStatus.COMPLETED.value
_COMPLETED_STATUS = RunStatus.COMPLETED
_STATUS_VALUES = {status: status.value for status in RunStatus}

#: Builds a fresh kernel (components + threads registered) around the
#: scheduler the explorer supplies.  Must not run it.
ProgramFactory = Callable[[Scheduler], Kernel]

#: Runs a kernel to completion and returns its result.  The default is
#: ``Kernel.run``; the engine's workers substitute a wall-clock-bounded
#: runner that returns a TIMEOUT result instead of hanging forever.
KernelRunner = Callable[[Kernel], RunResult]


def _default_runner(kernel: Kernel) -> RunResult:
    return kernel.run()


def _resolve_runner(
    factory: ProgramFactory, runner: Optional[KernelRunner]
) -> KernelRunner:
    """Pick the runner for a factory: an explicit ``runner`` wins, then a
    ``runner`` attribute the factory carries (this is how passing a
    :class:`repro.run.executor.RunExecutor` as the factory gives every
    explorer its timeout/metrics-matched runner), then ``Kernel.run``."""
    if runner is not None:
        return runner
    attached = getattr(factory, "runner", None)
    if callable(attached):
        return attached
    return _default_runner


def wilson_interval(failures: int, n: int, z: float = 1.96) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion ``failures / n``.

    Unlike the normal (Wald) approximation, the Wilson interval is always
    inside [0, 1] and stays informative at small ``n`` and extreme
    proportions — exactly the regime of short exploration campaigns:
    0 failures in 60 schedules still admits a true failure rate of up to
    ~6% at 95% confidence, the quantitative reason the paper prefers
    deterministic sequences to "run it many times and hope".

    Returns ``(0.0, 1.0)`` for ``n == 0`` (no data, no information).
    """
    if n <= 0:
        return (0.0, 1.0)
    p = failures / n
    denominator = 1 + z * z / n
    centre = (p + z * z / (2 * n)) / denominator
    margin = (
        z
        * ((p * (1 - p) / n + z * z / (4 * n * n)) ** 0.5)
        / denominator
    )
    return (max(0.0, centre - margin), min(1.0, centre + margin))


@dataclass(frozen=True)
class RunSummary:
    """The compact, serializable projection of one explored schedule.

    This is the shared currency between the in-process explorer and the
    multiprocess campaign engine: small enough to stream through a queue
    and journal to disk, complete enough to reproduce the run (``seed``
    for random/PCT modes, ``decisions`` for exact decision-index replay
    via :class:`~repro.vm.scheduler.ReplayScheduler`).
    """

    index: int
    status: str
    decisions: Tuple[int, ...]
    prefix: Tuple[int, ...] = ()
    seed: Optional[int] = None
    steps: int = 0
    stuck_threads: Tuple[str, ...] = ()
    crashed: Tuple[str, ...] = ()
    #: per-arc coverage hits as ``(method, src, dst, count)`` rows
    #: (empty unless the producer tracked coverage).
    arc_hits: Tuple[Tuple[str, str, str, int], ...] = ()
    #: streaming-detection summary as a plain dict (see
    #: :meth:`repro.detect.DetectionSummary.to_dict`); None unless the
    #: producer ran a detector pipeline.
    detection: Optional[Dict[str, Any]] = None
    #: per-run metrics record (see :data:`repro.obs.sink.RECORD_SCHEMA`);
    #: None unless the producer ran with instrumentation attached, and
    #: None again in a campaign result once the record is folded into
    #: the campaign registry (the journal and pool frames still carry it).
    metrics: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.status == _COMPLETED and not self.crashed

    @property
    def detected_classes(self) -> Tuple[str, ...]:
        """Failure-class codes the detector pipeline implicated (empty
        when the run was not detected on, or came up clean)."""
        if not self.detection:
            return ()
        return tuple(self.detection.get("classes", ()))

    @property
    def signature(self) -> Tuple[str, Tuple[str, ...]]:
        """Coarse outcome signature: status plus sorted stuck threads."""
        return (self.status, tuple(sorted(self.stuck_threads)))

    @cached_property
    def schedule_key(self) -> str:
        """Stable hash of the decision sequence, which names identical
        schedules reached from different shards/seeds; computed on the
        first read and kept."""
        raw = ",".join(map(str, self.decisions))
        return hashlib.sha1(raw.encode()).hexdigest()

    @classmethod
    def from_result(
        cls,
        index: int,
        result: RunResult,
        decisions: Sequence[int],
        prefix: Sequence[int] = (),
        seed: Optional[int] = None,
        arc_hits: Sequence[Tuple[str, str, str, int]] = (),
        detection: Optional[Dict[str, Any]] = None,
        metrics: Optional[Dict[str, Any]] = None,
    ) -> "RunSummary":
        """The summary of ``result``.  Every run of a campaign makes one,
        so the fields go straight into the instance dict: the frozen
        dataclass's own ``__init__`` sets them one ``object.__setattr__``
        at a time."""
        summary = object.__new__(cls)
        summary.__dict__.update(
            index=index,
            status=_STATUS_VALUES[result.status],
            decisions=tuple(decisions),
            prefix=tuple(prefix),
            seed=seed,
            steps=result.steps,
            stuck_threads=(
                tuple(sorted(result.stuck_threads)) if result.stuck_threads else ()
            ),
            crashed=tuple(sorted(result.crashed)) if result.crashed else (),
            arc_hits=tuple(tuple(row) for row in arc_hits) if arc_hits else (),
            detection=detection,
            metrics=metrics,
        )
        return summary

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "index": self.index,
            "status": self.status,
            "decisions": list(self.decisions),
            "steps": self.steps,
        }
        if self.prefix:
            payload["prefix"] = list(self.prefix)
        if self.seed is not None:
            payload["seed"] = self.seed
        if self.stuck_threads:
            payload["stuck"] = list(self.stuck_threads)
        if self.crashed:
            payload["crashed"] = list(self.crashed)
        if self.arc_hits:
            payload["arc_hits"] = [list(row) for row in self.arc_hits]
        if self.detection is not None:
            payload["detection"] = self.detection
        if self.metrics is not None:
            payload["metrics"] = self.metrics
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunSummary":
        return cls(
            index=int(payload["index"]),
            status=str(payload["status"]),
            decisions=tuple(int(d) for d in payload.get("decisions", ())),
            prefix=tuple(int(d) for d in payload.get("prefix", ())),
            seed=payload.get("seed"),
            steps=int(payload.get("steps", 0)),
            stuck_threads=tuple(payload.get("stuck", ())),
            crashed=tuple(payload.get("crashed", ())),
            arc_hits=tuple(
                (str(m), str(s), str(d), int(n))
                for m, s, d, n in payload.get("arc_hits", ())
            ),
            detection=payload.get("detection"),
            metrics=payload.get("metrics"),
        )


@dataclass(frozen=True)
class ExplorationRun:
    """One explored schedule."""

    index: int
    prefix: Tuple[int, ...]
    decisions: Tuple[int, ...]
    result: RunResult
    seed: Optional[int] = None

    @property
    def signature(self) -> Tuple[str, Tuple[str, ...]]:
        """A coarse outcome signature: status plus sorted stuck threads —
        used to count *distinct* failures across schedules."""
        return (self.result.status.value, tuple(sorted(self.result.stuck_threads)))

    @property
    def failed(self) -> bool:
        return self.result.status is not _COMPLETED_STATUS or bool(
            self.result.crashed
        )

    def summary(
        self,
        arc_hits: Sequence[Tuple[str, str, str, int]] = (),
        detection: Optional[Dict[str, Any]] = None,
        metrics: Optional[Dict[str, Any]] = None,
    ) -> RunSummary:
        """The compact serializable projection of this run."""
        return RunSummary.from_result(
            self.index,
            self.result,
            self.decisions,
            prefix=self.prefix,
            seed=self.seed,
            arc_hits=arc_hits,
            detection=detection,
            metrics=metrics,
        )


@dataclass
class ExplorationResult:
    """Aggregate of an exploration campaign."""

    runs: List[ExplorationRun] = field(default_factory=list)
    exhausted: bool = False  # True when the whole tree was enumerated
    n_executed: int = 0  # runs executed, even when ``keep_runs=False``
    #: decision prefixes still unexplored when a systematic enumeration
    #: hit ``max_runs`` (explorer stack order: last entry pops next).
    #: Subtrees under distinct pending prefixes are disjoint — the
    #: campaign engine's shard planner partitions exactly this list.
    pending: List[Tuple[int, ...]] = field(default_factory=list)

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    def statuses(self) -> Counter:
        return Counter(run.result.status for run in self.runs)

    def failures(self) -> List[ExplorationRun]:
        """Runs that did not complete cleanly."""
        return [run for run in self.runs if run.failed]

    def distinct_failure_signatures(self) -> List[Tuple[str, Tuple[str, ...]]]:
        seen: Dict[Tuple[str, Tuple[str, ...]], None] = {}
        for run in self.failures():
            seen.setdefault(run.signature)
        return list(seen)

    def first_failure_index(self) -> Optional[int]:
        """1-based index of the first failing schedule, or None."""
        for i, run in enumerate(self.runs):
            if run.failed:
                return i + 1
        return None

    def failure_rate(self) -> float:
        """Observed fraction of failing schedules."""
        if not self.runs:
            return 0.0
        return len(self.failures()) / len(self.runs)

    def failure_rate_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Wilson score interval for the per-schedule failure probability
        (see :func:`wilson_interval` for why Wilson and not the normal
        approximation)."""
        return wilson_interval(len(self.failures()), len(self.runs), z)

    def describe(self) -> str:
        status_counts = ", ".join(
            f"{status.value}: {count}" for status, count in self.statuses().items()
        )
        lines = [
            f"explored {self.n_runs} schedules"
            + (" (exhaustive)" if self.exhausted else ""),
            f"  outcomes: {status_counts}",
        ]
        first = self.first_failure_index()
        if first is not None:
            lines.append(f"  first failure at schedule #{first}")
        return "\n".join(lines)


def _record(
    result: ExplorationResult,
    run: ExplorationRun,
    on_run: Optional[Callable[[ExplorationRun], None]],
    keep_runs: bool,
) -> None:
    result.n_executed += 1
    if on_run is not None:
        on_run(run)
    if keep_runs:
        result.runs.append(run)


def explore_systematic(
    factory: ProgramFactory,
    max_runs: int = 500,
    max_depth: int = 400,
    stop_on_failure: bool = False,
    branch: str = "shallow",
    roots: Optional[Sequence[Sequence[int]]] = None,
    on_run: Optional[Callable[[ExplorationRun], None]] = None,
    keep_runs: bool = True,
    runner: Optional[KernelRunner] = None,
) -> ExplorationResult:
    """Systematic enumeration of the schedule tree.

    Every run replays an untried decision prefix and fills the suffix with
    FIFO; each decision recorded past the prefix spawns sibling prefixes
    for its untried alternatives, so the full tree is enumerated without
    duplicates (up to ``max_runs``; branch points past ``max_depth`` are
    not expanded).

    ``branch="shallow"`` (default) explores flips of *early* decisions
    first — concurrency bugs usually hinge on an early divergence (who
    takes the first lock), so this exposes them in few runs.
    ``branch="deep"`` gives classic last-decision-first DFS, which keeps
    the pending-prefix stack small on huge trees.

    ``roots`` restricts the enumeration to the subtrees under the given
    decision prefixes (default: the whole tree, ``[[]]``).  The campaign
    engine partitions a DFS frontier into disjoint root sets, so workers
    enumerate disjoint subtrees with no cross-process coordination.
    """
    if branch not in ("shallow", "deep"):
        raise ValueError(f"branch must be 'shallow' or 'deep', got {branch!r}")
    runner = _resolve_runner(factory, runner)
    result = ExplorationResult()
    stack: List[List[int]] = (
        [list(root) for root in reversed(list(roots))] if roots is not None else [[]]
    )
    while stack and result.n_executed < max_runs:
        prefix = stack.pop()
        kernel = factory(ReplayScheduler(prefix, fallback=FifoScheduler()))
        run_result = runner(kernel)
        decisions = kernel.choice_log
        counts = kernel.option_counts()
        run = ExplorationRun(
            index=result.n_executed,
            prefix=tuple(prefix),
            decisions=tuple(decisions),
            result=run_result,
        )
        del kernel, run_result
        failed = run.failed
        _record(result, run, on_run, keep_runs)
        del run  # unless kept, the next run starts with this one freed
        if stop_on_failure and failed:
            result.pending = [tuple(p) for p in stack]
            return result
        # Branch on every untried alternative strictly after the prefix.
        # The stack pops last-pushed first, so pushing deep-to-shallow
        # explores shallow flips first (and vice versa).
        positions = range(len(prefix), min(len(decisions), max_depth))
        ordered = reversed(positions) if branch == "shallow" else positions
        for i in ordered:
            for alternative in range(decisions[i] + 1, counts[i]):
                stack.append(decisions[:i] + [alternative])
    result.exhausted = not stack
    result.pending = [tuple(p) for p in stack]
    return result


def _explore_seeded(
    factory: ProgramFactory,
    seeds: Sequence[int],
    make_scheduler: Callable[[int], Scheduler],
    stop_on_failure: bool,
    on_run: Optional[Callable[[ExplorationRun], None]],
    keep_runs: bool,
    runner: Optional[KernelRunner],
) -> ExplorationResult:
    runner = _resolve_runner(factory, runner)
    result = ExplorationResult()
    for seed in seeds:
        kernel = factory(make_scheduler(seed))
        run_result = runner(kernel)
        run = ExplorationRun(
            index=result.n_executed,
            prefix=(),
            decisions=tuple(kernel.choice_log),
            result=run_result,
            seed=seed,
        )
        del kernel, run_result
        failed = run.failed
        _record(result, run, on_run, keep_runs)
        del run  # unless kept, the next run starts with this one freed
        if stop_on_failure and failed:
            break
    return result


def explore_random(
    factory: ProgramFactory,
    seeds: Sequence[int],
    stop_on_failure: bool = False,
    on_run: Optional[Callable[[ExplorationRun], None]] = None,
    keep_runs: bool = True,
    runner: Optional[KernelRunner] = None,
) -> ExplorationResult:
    """One run per seed under uniform random scheduling."""
    return _explore_seeded(
        factory,
        seeds,
        lambda seed: RandomScheduler(seed),
        stop_on_failure,
        on_run,
        keep_runs,
        runner,
    )


def explore_pct(
    factory: ProgramFactory,
    seeds: Sequence[int],
    depth: int = 3,
    expected_steps: int = 200,
    stop_on_failure: bool = False,
    on_run: Optional[Callable[[ExplorationRun], None]] = None,
    keep_runs: bool = True,
    runner: Optional[KernelRunner] = None,
) -> ExplorationResult:
    """One PCT trial per seed (random priorities, ``depth-1`` demotion
    points drawn over ``expected_steps``; see :mod:`repro.vm.pct`)."""
    return _explore_seeded(
        factory,
        seeds,
        lambda seed: PCTScheduler(
            seed=seed, depth=depth, expected_steps=expected_steps
        ),
        stop_on_failure,
        on_run,
        keep_runs,
        runner,
    )
