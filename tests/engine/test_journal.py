"""Tests for the JSONL campaign journal: durability and resume safety."""

import json

import pytest

from repro.engine.journal import CampaignJournal, JournalError
from repro.testing.explorer import RunSummary

FP = "a" * 64
OTHER_FP = "b" * 64


def summary(index, status="completed", **kwargs):
    return RunSummary(
        index=index, status=status, decisions=(0, 1, index), **kwargs
    )


class TestRoundtrip:
    def test_append_and_load(self, tmp_path):
        journal = CampaignJournal(tmp_path / "c.jsonl")
        journal.start(FP, meta={"factory": "pc-bug"})
        journal.append_shard("s0", [summary(0), summary(1, status="stuck")])
        journal.append_shard("s1", [summary(2)], exhausted=True)
        journal.close()

        state = journal.load()
        assert state.fingerprint == FP
        assert set(state.shards) == {"s0", "s1"}
        assert state.n_runs == 3
        assert state.shards["s0"][1].status == "stuck"
        assert state.exhausted == {"s0": False, "s1": True}

    def test_summaries_roundtrip_fully(self, tmp_path):
        original = RunSummary(
            index=7,
            status="deadlock",
            decisions=(1, 0, 2),
            prefix=(1,),
            seed=42,
            steps=99,
            stuck_threads=("a", "b"),
            crashed=("c",),
            arc_hits=(("send", "s0", "s1", 3),),
        )
        journal = CampaignJournal(tmp_path / "c.jsonl")
        journal.start(FP)
        journal.append_shard("s0", [original])
        journal.close()
        assert journal.load().shards["s0"][0] == original

    def test_start_truncates(self, tmp_path):
        journal = CampaignJournal(tmp_path / "c.jsonl")
        journal.start(FP)
        journal.append_shard("old", [summary(0)])
        journal.close()
        journal.start(OTHER_FP)
        journal.close()
        state = journal.load()
        assert state.fingerprint == OTHER_FP
        assert state.shards == {}


class TestResume:
    def test_resume_missing_file_starts_fresh(self, tmp_path):
        journal = CampaignJournal(tmp_path / "new.jsonl")
        state = journal.resume(FP)
        assert state.shards == {}
        journal.append_shard("s0", [summary(0)])  # handle is open
        journal.close()
        assert journal.load().n_runs == 1

    def test_resume_appends_not_truncates(self, tmp_path):
        journal = CampaignJournal(tmp_path / "c.jsonl")
        journal.start(FP)
        journal.append_shard("s0", [summary(0)])
        journal.close()

        state = journal.resume(FP)
        assert set(state.shards) == {"s0"}
        journal.append_shard("s1", [summary(1)])
        journal.close()
        assert set(journal.load().shards) == {"s0", "s1"}

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        journal = CampaignJournal(tmp_path / "c.jsonl")
        journal.start(FP)
        journal.close()
        with pytest.raises(JournalError, match="different campaign"):
            journal.resume(OTHER_FP)

    def test_append_without_open_rejected(self, tmp_path):
        journal = CampaignJournal(tmp_path / "c.jsonl")
        with pytest.raises(JournalError, match="not opened"):
            journal.append_shard("s0", [summary(0)])


class TestCorruption:
    def test_torn_tail_dropped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        journal = CampaignJournal(path)
        journal.start(FP)
        journal.append_shard("s0", [summary(0)])
        journal.append_shard("s1", [summary(1)])
        journal.close()
        # Simulate a crash mid-write: truncate the final line.
        text = path.read_text()
        path.write_text(text[: len(text) - 20])

        state = journal.load()
        assert set(state.shards) == {"s0"}  # torn s1 simply re-runs

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        with pytest.raises(JournalError, match="empty"):
            CampaignJournal(path).load()

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"format": "something-else"}) + "\n")
        with pytest.raises(JournalError, match="not a campaign journal"):
            CampaignJournal(path).load()

    def test_resume_over_version_1_journal_rejected(self, tmp_path):
        """Version 1 shard lines carried metrics in the self-describing
        snapshot form; resuming over one names the version it found."""
        from repro.engine import CampaignSpec, run_campaign

        path = tmp_path / "c.jsonl"
        spec = CampaignSpec(
            factory="pc-bug", budget=20, shard_size=10, workers=0, metrics=True,
            journal_path=str(path),
        )
        snapshot = {"metrics": [{"name": "vm_steps_total", "type": "counter",
                                 "help": "", "series": [{"labels": {}, "value": 9}]}]}
        lines = [
            {"format": "repro-campaign", "version": 1,
             "fingerprint": spec.fingerprint()},
            {"shard": "s0000", "n": 1, "exhausted": False,
             "summaries": [summary(0, metrics=snapshot).to_dict()]},
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(JournalError, match="unsupported journal version 1\\b"):
            run_campaign(spec, resume=True)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            json.dumps({"format": "repro-campaign", "version": 99, "fingerprint": FP})
            + "\n"
        )
        with pytest.raises(JournalError, match="version"):
            CampaignJournal(path).load()
