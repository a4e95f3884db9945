"""The ``--detect`` campaign fingerprint, pinned to a literal.

A journal resumes only under the fingerprint it was written with.  A
``--detect`` campaign fingerprints ``detect=True``, not the detector set
it runs, so a change to the default detector set must leave this value
alone: built directly, or from a scenario's :class:`RunConfig`.
"""

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
