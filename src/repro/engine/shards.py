"""Shard planning: partition a schedule space into independent units.

A :class:`Shard` is the unit of distribution, journaling, and retry.  Two
partitioning strategies, matching the two exploration families:

* **Seed ranges** (random / PCT): the seed space is embarrassingly
  parallel, so shards are contiguous slices of ``range(seed_start,
  seed_start + budget)``.  Deterministic: the same spec always plans the
  same shards, which is what lets a resumed campaign skip journaled
  shard ids and still cover exactly the original seed set.

* **DFS decision-prefix partitions** (systematic): the planner runs a
  short bounded enumeration in the orchestrator process and partitions
  the explorer's *pending* stack — the decision prefixes the DFS had
  queued but not yet executed.  Subtrees under distinct pending prefixes
  are provably disjoint (each pushed prefix flips a decision its
  siblings keep), so workers enumerate them with zero coordination and
  the union, plus the planner's own expansion runs, is exactly what a
  single-process DFS with the same budget would have covered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro.testing.explorer import (
    ExplorationRun,
    ProgramFactory,
    RunSummary,
    explore_systematic,
)

__all__ = ["Shard", "SystematicPlan", "plan_seed_shards", "plan_systematic_shards"]


@dataclass(frozen=True)
class Shard:
    """One independently executable slice of a campaign's schedule space."""

    shard_id: str
    mode: str  # "random" | "pct" | "systematic"
    seeds: Tuple[int, ...] = ()
    prefixes: Tuple[Tuple[int, ...], ...] = ()
    max_runs: int = 0

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "shard_id": self.shard_id,
            "mode": self.mode,
            "max_runs": self.max_runs,
        }
        if self.seeds:
            payload["seeds"] = list(self.seeds)
        if self.prefixes:
            payload["prefixes"] = [list(p) for p in self.prefixes]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Shard":
        return cls(
            shard_id=str(payload["shard_id"]),
            mode=str(payload["mode"]),
            seeds=tuple(int(s) for s in payload.get("seeds", ())),
            prefixes=tuple(
                tuple(int(d) for d in p) for p in payload.get("prefixes", ())
            ),
            max_runs=int(payload.get("max_runs", 0)),
        )


def plan_seed_shards(
    mode: str,
    budget: int,
    shard_size: int,
    seed_start: int = 0,
) -> List[Shard]:
    """Slice ``budget`` seeds into contiguous shards of ``shard_size``."""
    if budget <= 0:
        return []
    if shard_size <= 0:
        raise ValueError(f"shard_size must be positive, got {shard_size}")
    shards: List[Shard] = []
    for lo in range(seed_start, seed_start + budget, shard_size):
        hi = min(lo + shard_size, seed_start + budget)
        shards.append(
            Shard(
                shard_id=f"{mode}-{lo:06d}-{hi:06d}",
                mode=mode,
                seeds=tuple(range(lo, hi)),
                max_runs=hi - lo,
            )
        )
    return shards


@dataclass
class SystematicPlan:
    """The output of systematic planning: shards, plus summaries of the
    expansion runs the planner itself executed (they are real runs of the
    campaign and count toward its budget — journaled as shard ``"plan"``)."""

    shards: List[Shard]
    planner_summaries: List[RunSummary] = field(default_factory=list)
    exhausted: bool = False  # the planner alone enumerated the whole tree


def plan_systematic_shards(
    factory: ProgramFactory,
    budget: int,
    n_shards: int,
    max_depth: int = 400,
    branch: str = "shallow",
    summarize: Callable[[ExplorationRun], RunSummary] = ExplorationRun.summary,
) -> SystematicPlan:
    """Expand the decision tree just far enough to split it, then deal the
    explorer's pending frontier round-robin into ``n_shards`` groups.

    The expansion executes at most ``min(budget, n_shards)`` runs in the
    calling process; small trees may exhaust during planning, in which
    case no shards are needed at all.  The rest of ``budget`` is dealt
    exactly, and only to shards that get at least one run.  Each
    expansion run is recorded as ``summarize(run)`` (a
    :class:`~repro.run.executor.RunExecutor` factory's ``summarize``
    attaches its detection, metrics and coverage).
    """
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    planner_summaries: List[RunSummary] = []

    def note(run: ExplorationRun) -> None:
        planner_summaries.append(summarize(run))

    expansion = explore_systematic(
        factory,
        max_runs=min(budget, n_shards),
        max_depth=max_depth,
        branch=branch,
        on_run=note,
        keep_runs=False,
    )
    frontier = list(expansion.pending)
    if not frontier:
        return SystematicPlan(
            shards=[], planner_summaries=planner_summaries, exhausted=True
        )

    remaining = budget - expansion.n_executed
    n_groups = min(n_shards, len(frontier), remaining)
    # The frontier is in stack order (last pops first); deal it round-robin
    # from the top so each shard starts near where the sequential DFS would.
    dealt = frontier[::-1]
    per_shard, extra = divmod(remaining, max(1, n_groups))
    shards = [
        Shard(
            shard_id=f"dfs-{i:04d}",
            mode="systematic",
            prefixes=tuple(dealt[i::n_groups]),
            max_runs=per_shard + (i < extra),
        )
        for i in range(n_groups)
    ]
    return SystematicPlan(
        shards=shards, planner_summaries=planner_summaries, exhausted=False
    )
