"""A metered campaign keeps no per-run metrics once they are folded.

Every run's metrics record is folded into the campaign registry as the
run merges; the unique summary the result keeps drops it.  The bytes a
finished campaign result still holds must then grow by well under the
size of one record per run.
"""

import gc
import tracemalloc

from repro.engine import CampaignSpec, ProgressTracker, run_campaign

RUNS = 300
#: retained bytes per run allowed (a kept metrics record alone is ~3 KB)
MAX_BYTES_PER_RUN = 2048


def metered(budget):
    return CampaignSpec(
        factory="pc-bug",
        mode="random",
        budget=budget,
        shard_size=100,
        workers=0,
        detect=True,
        trace_mode="none",
        metrics=True,
    )


def test_metered_campaign_retains_no_records():
    run_campaign(metered(5), progress=ProgressTracker(stream=None))  # warm caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run_campaign(metered(RUNS), progress=ProgressTracker(stream=None))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.n_runs == RUNS
    assert result.metrics.counter("vm_events_total").total > 0
    assert all(s.metrics is None for s in result.summaries)
    per_run = retained / RUNS
    assert per_run < MAX_BYTES_PER_RUN, f"{per_run:.0f} bytes retained per run"
