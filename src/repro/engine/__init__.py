"""Parallel, resumable schedule-exploration campaigns.

``repro.engine`` scales the single-process explorer
(:mod:`repro.testing.explorer`) across a ``multiprocessing`` worker pool:

* :mod:`~repro.engine.shards` — partition the schedule space (seed
  ranges, DFS decision-prefix subtrees) into independent shards;
* :mod:`~repro.engine.worker` — the crash-isolated child-process entry
  point, with per-run wall-clock timeouts;
* :mod:`~repro.engine.journal` — the JSONL checkpoint that makes a
  killed campaign resumable without rework;
* :mod:`~repro.engine.progress` — the campaign's one incremental state
  (every count, shard row and merged metric) and its heartbeat;
* :mod:`~repro.engine.campaign` — the orchestrator tying it together;
* :mod:`~repro.engine.workloads` — the named Ext-B program factories.

Public API::

    from repro.engine import CampaignSpec, run_campaign

    spec = CampaignSpec(factory="pc-bug", mode="random",
                        budget=400, workers=4,
                        journal_path="campaign.jsonl")
    result = run_campaign(spec)
    print(result.describe())          # includes one-command replays
    ...
    run_campaign(spec, resume=True)   # after a crash: skips journaled shards
"""

from .campaign import (
    CampaignError,
    CampaignResult,
    CampaignSpec,
    ReplayArtifact,
    run_campaign,
)
from .journal import CampaignJournal, JournalError, JournalState
from .progress import ProgressTracker
from .shards import Shard, SystematicPlan, plan_seed_shards, plan_systematic_shards
from .worker import ShardOutcome, WorkerTask, execute_shard
from .workloads import WORKLOADS, resolve_factory, workload_names

__all__ = [
    "CampaignError",
    "CampaignJournal",
    "CampaignResult",
    "CampaignSpec",
    "JournalError",
    "JournalState",
    "ProgressTracker",
    "ReplayArtifact",
    "Shard",
    "ShardOutcome",
    "SystematicPlan",
    "WORKLOADS",
    "WorkerTask",
    "execute_shard",
    "plan_seed_shards",
    "plan_systematic_shards",
    "resolve_factory",
    "run_campaign",
    "workload_names",
]
