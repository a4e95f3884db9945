"""Bench Ext-M: live-telemetry overhead.

``repro campaign --serve`` promises observability that costs (nearly)
nothing: workers already shipped one summary per run, the frame wrapper
adds two shard-local integers, and the orchestrator's aggregator makes
one extra ``LiveAggregator.note_run`` call per merged run while the HTTP
server sleeps in ``accept`` on a daemon thread.  That call counts
nothing: the run is already folded into the campaign state the live
view reads, so it only updates the run's shard row and publishes one SSE
frame.

As in bench Ext-I, a single-digit overhead drowns in shared-box noise on
an end-to-end wall measurement, so the headline number is deterministic:
capture one campaign's summary stream, then time exactly the marginal
work telemetry adds per run — frame wrap + wire dict round trip +
``note_run``'s shard-row update and publish (with an SSE subscriber
attached, so the fan-out runs too) — and divide by the campaign's own
CPU time.  A loose
end-to-end gate (full campaign with a bound server and subscriber vs
telemetry off) rides along to catch gross regressions.
"""

import time

from conftest import write_result

from repro.engine import CampaignSpec, ProgressTracker, run_campaign
from repro.obs.live import LiveAggregator
from repro.obs.live.frames import TelemetryFrame
from repro.obs.live.server import TelemetryServer

BUDGET = 400
ROUNDS = 3
# The telemetry pass is far cheaper than the campaign, so sample harder.
PASS_ROUNDS = 10


def _spec() -> CampaignSpec:
    return CampaignSpec(
        factory="pc-bug",
        mode="random",
        budget=BUDGET,
        shard_size=50,
        workers=0,  # inline: measures orchestrator-side cost, no fork noise
        detect=True,
        trace_mode="none",
        metrics=True,
    )


def _quiet() -> ProgressTracker:
    return ProgressTracker(total_runs=BUDGET, stream=None)


def _campaign_seconds(with_telemetry: bool) -> float:
    best = None
    for _ in range(ROUNDS):
        telemetry = server = None
        if with_telemetry:
            telemetry = LiveAggregator()
            server = TelemetryServer(telemetry, "127.0.0.1", 0).start()
            telemetry.subscribe()  # a pinned SSE consumer, worst case
        started = time.process_time()
        result = run_campaign(_spec(), progress=_quiet(), telemetry=telemetry)
        elapsed = time.process_time() - started
        if server is not None:
            server.close()
        assert result.n_runs > 0
        best = elapsed if best is None else min(best, elapsed)
    return best


def _capture_summaries():
    captured = []
    telemetry = LiveAggregator()
    original = telemetry.note_run

    def spy(summary, duplicate, shard_id="", frame=None):
        captured.append((summary, duplicate, shard_id))
        original(summary, duplicate, shard_id=shard_id, frame=frame)

    telemetry.note_run = spy
    run_campaign(_spec(), progress=_quiet(), telemetry=telemetry)
    assert captured
    return captured


def _telemetry_pass_seconds(captured) -> float:
    """Best-of-N CPU seconds for the full per-run telemetry path over a
    captured stream: frame wrap, wire-dict round trip, shard-row update
    and publish (with one subscriber draining lazily, as an SSE client
    would)."""
    best = None
    for _ in range(PASS_ROUNDS):
        aggregator = LiveAggregator()
        subscriber = aggregator.subscribe()
        started = time.process_time()
        for index, (summary, duplicate, shard_id) in enumerate(captured):
            frame = TelemetryFrame.for_run(shard_id, summary, runs=index + 1)
            wired = TelemetryFrame.from_dict(frame.to_dict())
            aggregator.note_run(
                summary, duplicate=duplicate, shard_id=shard_id, frame=wired
            )
        elapsed = time.process_time() - started
        while not subscriber.empty():  # drain outside the timed window
            subscriber.get_nowait()
        best = elapsed if best is None else min(best, elapsed)
    return best


def test_live_telemetry_overhead(results_dir):
    base = _campaign_seconds(with_telemetry=False)
    served = _campaign_seconds(with_telemetry=True)
    captured = _capture_summaries()
    marginal = _telemetry_pass_seconds(captured)

    overhead = marginal / base
    end_to_end = served / base - 1.0
    per_run_us = marginal / len(captured) * 1e6
    text = (
        "Ext-M: live-telemetry overhead "
        f"(pc-bug campaign, budget {BUDGET}, inline, best of {ROUNDS}, "
        "CPU time)\n"
        f"  merged runs per campaign: {len(captured)}\n"
        f"  baseline campaign:        {base * 1000:8.2f} ms\n"
        f"  with --serve + frames:    {served * 1000:8.2f} ms  "
        f"({end_to_end:+.1%} end to end)\n"
        f"  telemetry marginal work:  {marginal * 1000:8.2f} ms  "
        f"({overhead:+.1%}, {per_run_us:.1f} us/run)\n"
        "  (marginal = frame wrap + wire round trip + note_run row "
        "update + publish with a subscriber)"
    )
    write_result(results_dir, "extM_live_overhead.txt", text)
    print()
    print(text)

    # The acceptance gate: telemetry must stay under 5% of campaign cost.
    assert overhead < 0.05, f"telemetry marginal {overhead:.1%}"
    # Loose end-to-end gate for gross regressions on noisy boxes.
    assert served < base * 1.25, f"{served:.3f}s vs baseline {base:.3f}s"
