"""The user-visible metrics documents, pinned by digest.

Four documents carry a campaign's or a workload's metrics to a user:

* the registry file of ``repro explore pc-bug --mode random --runs 60
  --metrics-out``;
* the registry file of ``repro profile pc-bug --runs 20 --metrics-out``;
* ``CampaignResult.build_metrics()`` of a metered 200-run ``pc-bug``
  campaign, as ``to_dict()`` and as Prometheus text;
* ``LiveAggregator.registry()`` once that campaign has closed.

With the wall-clock readings blanked each is a pure function of the
schedules run, so each is pinned here.  Any change to how runs' metrics
are produced, folded, copied or written must leave every digest as it is.
"""

import hashlib
import json

import pytest

from repro.cli import main
from repro.engine import CampaignSpec, run_campaign
from repro.obs.export import to_prometheus
from repro.obs.live import LiveAggregator

#: family name -> the series keys whose values are wall-clock readings
WALL_CLOCK = {
    "run_wall_seconds": ("counts", "sum"),
    "span_wall_seconds": ("counts", "sum"),
    "vm_events_per_second": ("value",),
    "campaign_runs_per_second": ("value",),
}

#: Prometheus sample names whose values are wall-clock readings
WALL_CLOCK_SAMPLES = (
    "run_wall_seconds_bucket",
    "run_wall_seconds_sum",
    "span_wall_seconds_bucket",
    "span_wall_seconds_sum",
    "vm_events_per_second",
    "campaign_runs_per_second",
)

PINNED = {
    "explore": "b7e968b0f20e2650fe9e1cca22ae3de85923991ac49fe6e487b61d594a7111f5",
    "profile": "f7cbd3153fad078e4f262584752e741de99d057045cf53c7ef3a833b1dfefdb4",
    "campaign": "f4a7d3b8319bdd9982ee33215216ace1f52e0365c26c772f428c19cb02fcfb5d",
    "campaign-prometheus": "7c0eb1c7d338b49e5d3b8a7f3c98794da1c102a9b831e2a298dc2b231636b44d",
    "live": "f4a7d3b8319bdd9982ee33215216ace1f52e0365c26c772f428c19cb02fcfb5d",
}


def blank_metric(row):
    """One metric row with its wall-clock series values set to None."""
    blank = WALL_CLOCK.get(row.get("name"), ())
    if not blank:
        return row
    return {
        **row,
        "series": [
            {key: None if key in blank else value for key, value in s.items()}
            for s in row["series"]
        ],
    }


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def document_digest(document):
    blanked = {**document, "metrics": [blank_metric(r) for r in document["metrics"]]}
    return sha256(json.dumps(blanked, sort_keys=True))


def file_digest(path):
    """Digest of a metrics JSONL file: its header, then every metric line
    blanked, each re-serialised with sorted keys."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [json.loads(lines[0])]
    rows += [blank_metric(json.loads(line)) for line in lines[1:]]
    return sha256("\n".join(json.dumps(row, sort_keys=True) for row in rows))


def prometheus_digest(text):
    lines = []
    for line in text.splitlines():
        sample = line.split("{", 1)[0].split(" ", 1)[0]
        if not line.startswith("#") and sample in WALL_CLOCK_SAMPLES:
            line = line.rsplit(" ", 1)[0] + " _"
        lines.append(line)
    return sha256("\n".join(lines))


def test_explore_metrics_file_matches_the_pin(tmp_path, capsys):
    out = tmp_path / "explore.jsonl"
    argv = ["explore", "pc-bug", "--mode", "random", "--runs", "60",
            "--metrics-out", str(out)]
    assert main(argv) in (0, 2)
    capsys.readouterr()
    assert file_digest(out) == PINNED["explore"]


def test_profile_metrics_file_matches_the_pin(tmp_path, capsys):
    out = tmp_path / "profile.jsonl"
    assert main(["profile", "pc-bug", "--runs", "20", "--metrics-out", str(out)]) == 0
    capsys.readouterr()
    assert file_digest(out) == PINNED["profile"]


@pytest.fixture(scope="module")
def campaign():
    telemetry = LiveAggregator()
    spec = CampaignSpec(
        factory="pc-bug",
        mode="random",
        budget=200,
        shard_size=50,
        workers=0,
        detect=True,
        trace_mode="none",
        metrics=True,
    )
    result = run_campaign(spec, telemetry=telemetry)
    assert result.n_runs == 200
    return result, telemetry


def test_campaign_registry_matches_the_pin(campaign):
    result, _ = campaign
    assert document_digest(result.build_metrics().to_dict()) == PINNED["campaign"]


def test_campaign_prometheus_text_matches_the_pin(campaign):
    result, _ = campaign
    text = to_prometheus(result.build_metrics())
    assert prometheus_digest(text) == PINNED["campaign-prometheus"]


def test_live_registry_after_close_matches_the_pin(campaign):
    _, telemetry = campaign
    assert telemetry.state == "done"
    assert document_digest(telemetry.registry().to_dict()) == PINNED["live"]
