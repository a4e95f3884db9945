"""Replay faithfulness: the ledger prices layers on the runs' own streams.

Each replay must consume the whole captured stream, the replayed
detectors must reach the in-run pipeline's findings for the same seeds,
and the captured step and event counts must be the runs' own.
"""

import pytest

from ledger import replay
from ledger.workloads import campaign_spec
from repro.engine import CampaignSpec, ProgressTracker, run_campaign

#: pc-short as the ledger runs it (seven detectors plus the sink), and a
#: variant that also runs the reentry detector
SPECS = {
    "pc-short": campaign_spec("pc-short", seed=3, scale=0.05, workdir=""),
    "all-detectors": CampaignSpec(
        factory="pc-bug",
        mode="random",
        budget=40,
        seed_start=3,
        detectors=replay.DETECTOR_NAMES,
        trace_mode="none",
        metrics=True,
    ),
}


@pytest.fixture(scope="module", params=sorted(SPECS))
def captured(request):
    spec = SPECS[request.param]
    runs = replay.capture([spec], min_events=2000, findings=True)
    result = run_campaign(spec, progress=ProgressTracker(stream=None))
    return spec, runs, {s.seed: s for s in result.summaries}


def test_counts_are_the_runs_own(captured):
    spec, runs, summaries = captured
    assert runs and sum(r.events for r in runs) >= 2000
    for run in runs:
        assert len(run.picks) == run.steps
        assert len(run.emits) == len(run.stream) == run.events
        if run.seed in summaries:  # duplicate schedules merge once
            assert summaries[run.seed].steps == run.steps


def test_emit_replay_consumes_every_call(captured):
    _spec, runs, _ = captured
    priced = replay.price_emit(runs)
    assert priced.items == sum(len(r.emits) for r in runs)
    for (kernel, calls), run in zip(priced.state, runs):
        assert kernel.events_emitted == len(calls) == run.events


def test_pick_replay_makes_the_same_decisions(captured):
    _spec, runs, _ = captured
    priced = replay.price_pick(runs)
    assert priced.items == sum(r.steps for r in runs)
    for (scheduler, _picks), run in zip(priced.state, runs):
        assert scheduler.decision_indices() == [d.chosen for d in run.picks]


def test_build_replay_builds_one_kernel_per_run(captured):
    _spec, runs, _ = captured
    assert replay.price_build(runs).items == len(runs)


def test_detector_replays_reach_the_in_run_findings(captured):
    spec, runs, _ = captured
    detectors = spec.run_config().detect
    events = sum(len(r.stream) for r in runs)
    for name in replay.DETECTOR_NAMES:
        priced = replay.price_detector(runs, name)
        if name not in detectors:
            assert priced.items == 0
            continue
        assert priced.items == events
        for (detector, _stream), run in zip(priced.state, runs):
            assert detector.finish() == run.findings[name], (name, run.seed)


def test_pipeline_replay_sees_every_event(captured):
    _spec, runs, _ = captured
    priced = replay.price_pipeline(runs)
    assert priced.items == sum(len(r.stream) for r in runs)
    for (pipeline, stream), run in zip(priced.state, runs):
        assert pipeline.events_seen == len(stream)
        assert pipeline.findings() == run.findings
    assert replay.price_symptoms(runs).items == priced.items


def test_sink_replay_consumes_every_event(captured):
    _spec, runs, _ = captured
    assert replay.price_sink(runs).items == sum(len(r.stream) for r in runs)


def test_frame_replay_round_trips_summaries(captured):
    _spec, _runs, summaries = captured
    ordered = list(summaries.values())
    encoded, decoded = replay.price_frames(ordered)
    assert encoded.items == decoded.items == len(ordered)
    assert [frame.summary for frame in decoded.state] == ordered
