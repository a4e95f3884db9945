"""Unified dynamic analysis: run every detector, classify every finding.

:func:`analyze_run` is the one-call entry point used by the examples and
the mutation-study bench: it takes a finished :class:`RunResult` (plus
optional completion-time expectations) and replays its trace through a
:class:`~repro.detect.online.DetectorPipeline` of the six default
detectors,

* the lockset race detector (FF-T1),
* the happens-before race detector (FF-T1),
* the lock-order-graph potential-deadlock detector (FF-T2/FF-T4),
* the wait-for-graph actual-deadlock check,
* the starvation analyzer (FF-T2 unfair lock, FF-T5 unfair notify),
* the completion-time checker (the Table-1 oracle),

plus the VM-level symptom extraction (blocked/waiting/deadlock/step-limit),
and folds everything into one :class:`DetectionReport` whose findings are
classified against the Table-1 taxonomy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.classify.symptoms import (
    ClassificationReport,
    Symptom,
    classify_symptoms,
)
from repro.classify.taxonomy import FailureClass
from repro.vm.kernel import RunResult

from .completion import Expectation, Violation
from .eraser import RaceReport
from .lockgraph import PotentialDeadlock
from .online import DetectorPipeline
from .reentry import ReentryFinding
from .starvation import StarvationReport
from .vectorclock import HbRace

__all__ = ["DetectionReport", "analyze_run", "assemble_report", "dedupe_hb_races"]


@dataclass
class DetectionReport:
    """Everything the dynamic analyses found in one run."""

    races: List[RaceReport] = field(default_factory=list)
    hb_races: List[HbRace] = field(default_factory=list)
    potential_deadlocks: List[PotentialDeadlock] = field(default_factory=list)
    deadlock_cycle: List[str] = field(default_factory=list)
    starvation: List[StarvationReport] = field(default_factory=list)
    completion_violations: List[Violation] = field(default_factory=list)
    reentry: List[ReentryFinding] = field(default_factory=list)
    classification: ClassificationReport = field(
        default_factory=ClassificationReport
    )

    @property
    def clean(self) -> bool:
        return (
            not self.races
            and not self.hb_races
            and not self.potential_deadlocks
            and not self.deadlock_cycle
            and not self.starvation
            and not self.completion_violations
            and not self.reentry
            and self.classification.clean
        )

    def classes_detected(self) -> List[FailureClass]:
        """All failure classes implicated by any finding."""
        return self.classification.classes_seen()

    def describe(self) -> str:
        if self.clean:
            return "clean run: no concurrency failures detected"
        lines: List[str] = []
        if self.races:
            lines.append("data races (lockset):")
            lines.extend(f"  {r}" for r in self.races)
        if self.hb_races:
            lines.append("data races (happens-before):")
            lines.extend(f"  {r}" for r in self.hb_races)
        if self.deadlock_cycle:
            lines.append(f"deadlock cycle: {' -> '.join(self.deadlock_cycle)}")
        if self.potential_deadlocks:
            lines.append("potential deadlocks (lock-order cycles):")
            lines.extend(f"  {d}" for d in self.potential_deadlocks)
        if self.starvation:
            lines.append("starvation:")
            lines.extend(f"  {s}" for s in self.starvation)
        if self.completion_violations:
            lines.append("completion-time violations:")
            lines.extend(f"  {v}" for v in self.completion_violations)
        if self.reentry:
            lines.append("premature re-entries:")
            lines.extend(f"  {r}" for r in self.reentry)
        lines.append("classification:")
        lines.append(
            "\n".join(f"  {f}" for f in self.classification.failures)
            or "  (no classified symptoms)"
        )
        return "\n".join(lines)


def dedupe_hb_races(
    hb_races: Sequence[HbRace], lockset_races: Sequence[RaceReport]
) -> List[HbRace]:
    """Happens-before races on fields the lockset detector did NOT already
    report.

    A race both detectors saw is one finding, not two; HB-only findings
    (rare: requires an unlocked-but-ordered pattern to later become
    unordered) deserve their own observation; used by report assembly.
    """
    lockset_fields = {(r.component, r.field) for r in lockset_races}
    return [
        hb_race
        for hb_race in hb_races
        if (hb_race.component, hb_race.field) not in lockset_fields
    ]


def finding_observations(
    *,
    races: Sequence[RaceReport],
    hb_races: Sequence[HbRace],
    starvation: Sequence[StarvationReport],
    completion_violations: Sequence[Violation],
    reentry: Sequence[ReentryFinding] = (),
) -> List[Tuple[Symptom, Dict[str, Any]]]:
    """The observation each finding is evidence of, in report order: the
    one finding-to-symptom mapping, shared by :func:`assemble_report` and
    :meth:`~repro.detect.online.DetectorPipeline.summary`."""
    observations: List[Tuple[Symptom, Dict[str, Any]]] = []
    for hb_race in dedupe_hb_races(hb_races, races):
        observations.append(
            (
                Symptom.DATA_RACE,
                {
                    "thread": hb_race.second_thread,
                    "component": hb_race.component,
                    "detail": f"field {hb_race.field!r}: unordered "
                    f"conflicting accesses (happens-before)",
                },
            )
        )
    for race in races:
        observations.append(
            (
                Symptom.DATA_RACE,
                {
                    "thread": race.second_thread,
                    "component": race.component,
                    "detail": f"field {race.field!r} shared with "
                    f"{race.first_thread!r} without a common lock",
                },
            )
        )
    for starved in starvation:
        observations.append(
            (
                Symptom.PERMANENTLY_BLOCKED
                if starved.kind == "lock"
                else Symptom.PERMANENTLY_WAITING,
                {
                    "thread": starved.thread,
                    "detail": f"bypassed {starved.bypasses}x on "
                    f"{starved.monitor!r} ({starved.kind} starvation)",
                },
            )
        )
    for violation in completion_violations:
        observations.append(
            (
                violation.symptom,
                {
                    "thread": violation.expectation.thread,
                    "component": violation.expectation.component,
                    "method": violation.expectation.method,
                    "detail": violation.detail,
                },
            )
        )
    for finding in reentry:
        observations.append(
            (
                Symptom.PREMATURE_REENTRY,
                {
                    "thread": finding.thread,
                    "component": finding.component,
                    "method": finding.method,
                    "detail": f"{finding.kind} after wake without re-checking "
                    f"guard ({', '.join(finding.guard) or 'unguarded'})",
                },
            )
        )
    return observations


def assemble_report(
    *,
    races: Sequence[RaceReport],
    hb_races: Sequence[HbRace],
    potential_deadlocks: Sequence[PotentialDeadlock],
    deadlock_cycle: Sequence[str],
    starvation: Sequence[StarvationReport],
    completion_violations: Sequence[Violation],
    observations: Sequence[Tuple[Symptom, Dict[str, Any]]],
    reentry: Sequence[ReentryFinding] = (),
) -> DetectionReport:
    """Fold detector findings plus VM-level observations into one
    classified :class:`DetectionReport`
    (:meth:`repro.detect.online.DetectorPipeline.report`)."""
    observations = list(observations) + finding_observations(
        races=races,
        hb_races=hb_races,
        starvation=starvation,
        completion_violations=completion_violations,
        reentry=reentry,
    )
    return DetectionReport(
        races=list(races),
        hb_races=list(hb_races),
        potential_deadlocks=list(potential_deadlocks),
        deadlock_cycle=list(deadlock_cycle),
        starvation=list(starvation),
        completion_violations=list(completion_violations),
        reentry=list(reentry),
        classification=classify_symptoms(observations),
    )


def analyze_run(
    result: RunResult,
    expectations: Sequence[Expectation] = (),
    bypass_threshold: int = 3,
) -> DetectionReport:
    """Run the default detectors over a finished run's trace and classify
    the findings."""
    pipeline = DetectorPipeline(
        expectations=expectations,
        bypass_threshold=bypass_threshold,
        early_stop=False,
    )
    pipeline.fold(result.trace)
    return pipeline.report(result)
