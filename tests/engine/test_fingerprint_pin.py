"""The ``--detect`` campaign fingerprint, pinned to a literal.

A journal resumes only under the fingerprint it was written with.  A
``--detect`` campaign fingerprints ``detect=True``, not the detector set
it runs, so a change to the default detector set must leave this value
alone: built directly, or from a scenario's :class:`RunConfig`.

The specs ``repro campaign`` builds from its flags are pinned the same
way, so a change to how the CLI assembles a spec cannot move a journal's
fingerprint either.
"""

import pytest

from repro.engine import CampaignSpec
from repro.run import RunConfig

#: sha256 of the schedule space of a 400-run traceless ``--detect`` pc-bug campaign
PINNED = "f4ed90acdd7bc957720600d58415d6a5e070ca95ebc81ef0fa1f1194fec5bb12"


def test_detect_campaign_fingerprint_is_pinned():
    spec = CampaignSpec(factory="pc-bug", detect=True, budget=400, trace_mode="none")
    assert spec.fingerprint() == PINNED


def test_run_config_detect_campaign_fingerprint_is_pinned():
    config = RunConfig(workload="pc-bug", detect=True, trace_mode="none")
    spec = CampaignSpec.from_run_config(config, budget=400)
    assert spec.detectors == ()
    assert spec.fingerprint() == PINNED


# -- the specs ``repro campaign`` builds from its flags -----------------------

#: flag set -> sha256 of the schedule space of the spec the CLI builds
CLI_PINNED = {
    (
        "pc --component SpuriousUnguardedProducerConsumer "
        "--faults spurious-first-wait --detect"
    ): "73a24ad6799fb383db393081f4f12e6862b8bd550823efa40fefff9d00c0cd64",
    (
        "deadlock-pair --mode systematic --max-depth 50 --branch deep"
    ): "40e53d1dc6d1e8d465478b113a4821b3e153edba20413d86af9f5e669abff040",
    (
        "pc-bug --detect --trace-mode none --spurious-rate 0.2 --metrics-prom X"
    ): "cdfef1bc3c8fc68e4d9af24695baabf7a94af83b0dad29273c4e1e7d1e69b900",
}


class _Captured(Exception):
    pass


def _campaign_spec(monkeypatch, flags):
    """The CampaignSpec ``repro campaign <flags>`` hands to run_campaign."""
    import repro.engine
    from repro.cli import main

    seen = []

    def capture(spec, **_kwargs):
        seen.append(spec)
        raise _Captured

    monkeypatch.setattr(repro.engine, "run_campaign", capture)
    with pytest.raises(_Captured):
        main(["campaign", *flags.split(), "--quiet"])
    return seen[0]


@pytest.mark.parametrize("flags", sorted(CLI_PINNED))
def test_cli_campaign_fingerprint_is_pinned(monkeypatch, flags):
    assert _campaign_spec(monkeypatch, flags).fingerprint() == CLI_PINNED[flags]
