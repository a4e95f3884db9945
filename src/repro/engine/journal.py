"""On-disk campaign checkpoint: a JSONL journal of completed shards.

One header line identifying the campaign (a fingerprint of every
schedule-space-defining spec field), then one line per *completed* shard
carrying its run summaries.  Partial shards are never journaled — a
shard is the atomic unit of progress — so a campaign killed mid-flight
loses at most the shards in progress, and ``--resume`` replays nothing
that was journaled.  Version 2 stores a metered run's metrics as the
compact record of :mod:`repro.obs.sink`; the format is documented in
``docs/formats.md`` ("Campaign journals").

Robustness decisions:

* every shard line is flushed (and fsync'd) before the orchestrator
  counts the shard as durable, so ``kill -9`` cannot lose acknowledged
  work;
* a torn final line (the process died mid-write) is detected by the JSON
  parse failing and silently dropped on load — the shard it described
  simply re-runs;
* resuming against a journal whose fingerprint differs from the spec is
  an error, not a silent restart: a different spec means a different
  shard plan, and shard ids would collide meaninglessly.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.testing.explorer import RunSummary

__all__ = ["CampaignJournal", "JournalState", "JournalError"]

_FORMAT = "repro-campaign"
_VERSION = 2


class JournalError(ValueError):
    """The journal file does not match the campaign trying to use it."""


class JournalState:
    """Parsed journal contents: which shards completed, with what runs."""

    def __init__(self, fingerprint: str) -> None:
        self.fingerprint = fingerprint
        self.shards: Dict[str, List[RunSummary]] = {}
        #: per-shard "this subtree was fully enumerated" flags
        #: (systematic mode only; seed shards record False).
        self.exhausted: Dict[str, bool] = {}

    @property
    def n_runs(self) -> int:
        return sum(len(s) for s in self.shards.values())


class CampaignJournal:
    """Append-only JSONL checkpoint for one campaign."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle = None

    def exists(self) -> bool:
        return self.path.exists()

    # -- writing -----------------------------------------------------------

    def start(self, fingerprint: str, meta: Optional[dict] = None) -> None:
        """Begin a fresh journal (truncating any previous one)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w")
        header = {
            "format": _FORMAT,
            "version": _VERSION,
            "fingerprint": fingerprint,
        }
        if meta:
            header["meta"] = meta
        self._write_line(header)

    def resume(self, fingerprint: str) -> JournalState:
        """Load an existing journal (verifying the fingerprint) and
        reopen it for appending; starts fresh if the file is absent."""
        if not self.exists():
            self.start(fingerprint)
            return JournalState(fingerprint)
        state = self.load()
        if state.fingerprint != fingerprint:
            raise JournalError(
                f"journal {self.path} was written by a different campaign "
                f"(fingerprint {state.fingerprint[:12]}… != {fingerprint[:12]}…); "
                f"delete it or change --journal"
            )
        self._handle = self.path.open("a")
        return state

    def append_shard(
        self,
        shard_id: str,
        summaries: List[RunSummary],
        exhausted: bool = False,
    ) -> None:
        """Durably record one completed shard."""
        if self._handle is None:
            raise JournalError("journal not opened (call start() or resume())")
        self._write_line(
            {
                "shard": shard_id,
                "n": len(summaries),
                "exhausted": exhausted,
                "summaries": [s.to_dict() for s in summaries],
            }
        )

    def _write_line(self, payload: dict) -> None:
        self._handle.write(json.dumps(payload, separators=(",", ":")) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- reading -----------------------------------------------------------

    def load(self) -> JournalState:
        """Parse the journal, tolerating a torn trailing line."""
        lines = self.path.read_text().splitlines()
        if not lines:
            raise JournalError(f"journal {self.path} is empty")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            raise JournalError(f"journal {self.path} has a corrupt header")
        if header.get("format") != _FORMAT:
            raise JournalError(f"{self.path} is not a campaign journal")
        if header.get("version") != _VERSION:
            raise JournalError(
                f"unsupported journal version {header.get('version')!r} "
                f"(this release reads version {_VERSION})"
            )
        state = JournalState(str(header.get("fingerprint", "")))
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break  # torn tail: the write died with the process
            shard_id = record.get("shard")
            if shard_id is None:
                continue
            state.shards[str(shard_id)] = [
                RunSummary.from_dict(s) for s in record.get("summaries", ())
            ]
            state.exhausted[str(shard_id)] = bool(record.get("exhausted", False))
        return state
