"""Corpus sweeps: one detection campaign per variant, resumably.

:func:`sweep_corpus` fans a generated corpus through the PR-1 campaign
engine — one :class:`~repro.engine.campaign.CampaignSpec` per variant,
each with its own JSONL journal under the sweep directory, so an
interrupted sweep resumes exactly where it stopped (``--resume`` skips
journaled work variant by variant, shard by shard).

Every campaign runs the full online detector pipeline *plus* the
``"reentry"`` detector (the EF-T5 instrument that is not part of the
default six), inline (``workers=0`` — variants live only in this
process's ``COMPONENTS`` registry) and with ``trace_mode="none"`` so a
large corpus stays O(detector state) per run.  Detected classes merge
two evidence streams, mirroring Table 1's split of detection techniques:

* **dynamic** — the campaign's per-class counts over unique schedules;
* **static**  — :func:`repro.analysis.check_component` findings on the
  variant source (the T1 classes are prescribed static analysis, and a
  sweep workload never calls an ``over_sync`` probe method).

Some mutants legitimately survive: weakening only *one* side of a
bounded buffer to ``notify`` (``notify_single@put`` alone, say) is
near-equivalent under the sweep workloads, because every successful call
to the *unmutated* side still ``notifyAll``-s and re-wakes any stranded
waiter — only the double-sided pair variant deadlocks.  The report
lists survivors under "missed variants" rather than hiding them; that
honesty is the point of a labeled corpus.

Results serialize deterministically (no wall-clock fields, sorted keys):
the same corpus swept with the same seed budget — interrupted and
resumed or not — yields a byte-identical results file, and therefore a
byte-identical report.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.analysis import check_component
from repro.engine import CampaignSpec, run_campaign
from repro.engine.progress import ProgressTracker
from repro.run.config import DETECTOR_ORDER
from repro.run.registry import COMPONENTS

from .generate import CorpusError, VariantRecord

__all__ = [
    "SWEEP_DETECTORS",
    "SweepResult",
    "read_results",
    "sweep_corpus",
    "write_results",
]

RESULTS_SCHEMA = "repro-corpus-results"
RESULTS_VERSION = 1

#: the detector set every sweep campaign runs: the default six plus
#: the premature-reentry detector (EF-T5 needs it)
SWEEP_DETECTORS: Tuple[str, ...] = DETECTOR_ORDER + ("reentry",)

#: random-scheduler seeds explored per variant unless overridden
DEFAULT_SEEDS = 40


@dataclass(frozen=True)
class SweepResult:
    """Detection outcome for one corpus variant."""

    variant_id: str
    parent: str
    operators: Tuple[str, ...]
    expected: Tuple[str, ...]
    #: failure classes detected (dynamic ∪ static), sorted
    detected: Tuple[str, ...]
    #: dynamically detected class -> unique schedules implicating it
    class_counts: Dict[str, int]
    #: classes contributed by the static checks alone
    static_classes: Tuple[str, ...]
    runs: int
    failures: int
    statuses: Dict[str, int]

    @property
    def is_control(self) -> bool:
        return not self.expected

    @property
    def caught(self) -> bool:
        """An expected class was detected (undefined for controls)."""
        return bool(set(self.expected) & set(self.detected))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "variant_id": self.variant_id,
            "parent": self.parent,
            "operators": list(self.operators),
            "expected": list(self.expected),
            "detected": list(self.detected),
            "class_counts": dict(sorted(self.class_counts.items())),
            "static_classes": list(self.static_classes),
            "runs": self.runs,
            "failures": self.failures,
            "statuses": dict(sorted(self.statuses.items())),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepResult":
        try:
            return cls(
                variant_id=str(data["variant_id"]),
                parent=str(data["parent"]),
                operators=tuple(data["operators"]),
                expected=tuple(data["expected"]),
                detected=tuple(data["detected"]),
                class_counts={
                    str(k): int(v) for k, v in data["class_counts"].items()
                },
                static_classes=tuple(data.get("static_classes", ())),
                runs=int(data["runs"]),
                failures=int(data["failures"]),
                statuses={str(k): int(v) for k, v in data["statuses"].items()},
            )
        except KeyError as exc:
            raise CorpusError(f"results record missing field {exc}") from None


def _variant_spec(
    record: VariantRecord, sweep_dir: str, seeds: int, timeout: float
) -> CampaignSpec:
    journal = os.path.join(sweep_dir, f"{record.class_name}.journal.jsonl")
    return CampaignSpec(
        factory=record.workload,
        component=record.variant_id,
        mode="random",
        budget=seeds,
        workers=0,
        shard_size=min(seeds, 25),
        detectors=SWEEP_DETECTORS,
        trace_mode="none",
        run_timeout=timeout,
        journal_path=journal,
    )


def sweep_corpus(
    records: Iterable[VariantRecord],
    sweep_dir: str,
    seeds: int = DEFAULT_SEEDS,
    resume: bool = False,
    timeout: float = 10.0,
    on_variant: Optional[Callable[[SweepResult], None]] = None,
) -> List[SweepResult]:
    """Run one detection campaign per variant; returns results in corpus
    order.  Variants must already be registered (see
    :func:`repro.corpus.generate.load_corpus`).

    With ``resume=True``, variants whose journals already cover the
    budget are merged from disk without re-executing a single run.
    """
    os.makedirs(sweep_dir, exist_ok=True)
    results: List[SweepResult] = []
    for record in records:
        spec = _variant_spec(record, sweep_dir, seeds, timeout)
        journal_exists = spec.journal_path and os.path.exists(spec.journal_path)
        campaign = run_campaign(
            spec,
            resume=bool(resume and journal_exists),
            progress=ProgressTracker(total_runs=seeds, stream=None),
        )
        static_codes = tuple(
            sorted(
                {
                    finding.failure_class.code
                    for finding in check_component(
                        COMPONENTS.get(record.variant_id)
                    )
                }
            )
        )
        dynamic = {code: int(n) for code, n in campaign.class_counts.items()}
        detected = tuple(sorted(set(dynamic) | set(static_codes)))
        result = SweepResult(
            variant_id=record.variant_id,
            parent=record.parent,
            operators=record.operators,
            expected=record.expected,
            detected=detected,
            class_counts=dynamic,
            static_classes=static_codes,
            runs=campaign.n_runs,
            failures=len(campaign.failures()),
            statuses={k: int(v) for k, v in campaign.statuses().items()},
        )
        results.append(result)
        if on_variant is not None:
            on_variant(result)
    return results


def write_results(
    results: List[SweepResult], path: str, seeds: int
) -> None:
    header = {
        "schema": RESULTS_SCHEMA,
        "version": RESULTS_VERSION,
        "seeds": seeds,
        "variants": len(results),
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for result in results:
            handle.write(json.dumps(result.to_dict(), sort_keys=True) + "\n")


def read_results(path: str) -> List[SweepResult]:
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    if not lines:
        raise CorpusError(f"results file {path!r} is empty")
    header = json.loads(lines[0])
    if header.get("schema") != RESULTS_SCHEMA:
        raise CorpusError(
            f"{path!r} is not a corpus results file (schema "
            f"{header.get('schema')!r}, expected {RESULTS_SCHEMA!r})"
        )
    return [SweepResult.from_dict(json.loads(line)) for line in lines[1:]]
