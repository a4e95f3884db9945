"""The merged campaign registry, pinned by digest.

A 200-run metered ``pc-bug`` campaign folds every run's metrics into one
registry.  Its ``to_dict()``, with the wall-clock readings blanked, is a
pure function of the schedules run, so it is pinned here: inline and
through a two-worker pool, the merged document must hash to the same
digest.  Any change to how a run's metrics are produced, shipped or
folded must leave it unchanged.
"""

import hashlib
import json
import multiprocessing

import pytest

from repro.engine import CampaignSpec, run_campaign

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

#: sha256 of the blanked merged registry of :func:`spec`
PINNED = "b9687ddf2de832059ce7f04d1d798de80189ea05f3d18bcaaf7edcaabd1b010c"


def spec(workers):
    return CampaignSpec(
        factory="pc-bug",
        mode="random",
        budget=200,
        shard_size=50,
        workers=workers,
        detect=True,
        trace_mode="none",
        metrics=True,
    )


def blanked(document):
    """``document`` with the values of the wall-clock families set to
    None: the ``run_wall_seconds`` bucket counts and sums, and every
    ``vm_events_per_second`` value."""
    rows = []
    for row in document["metrics"]:
        blank = {"run_wall_seconds": ("counts", "sum"),
                 "vm_events_per_second": ("value",)}.get(row["name"], ())
        if blank:
            row = dict(row)
            row["series"] = [
                {key: None if key in blank else value for key, value in s.items()}
                for s in row["series"]
            ]
        rows.append(row)
    return {**document, "metrics": rows}


def digest(result):
    text = json.dumps(blanked(result.metrics.to_dict()), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "workers",
    [
        0,
        pytest.param(
            2,
            marks=pytest.mark.skipif(not HAS_FORK, reason="requires fork"),
        ),
    ],
    ids=["inline", "pool"],
)
def test_merged_registry_matches_the_pin(workers):
    result = run_campaign(spec(workers))
    assert result.n_runs == 200
    assert digest(result) == PINNED
