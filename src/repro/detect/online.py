"""The online-detector protocol and streaming pipeline.

Every batch detector in :mod:`repro.detect` is a fold over the event
stream; this module makes the fold explicit.  An :class:`OnlineDetector`
consumes events in order, one at a time (``on_event``) or a batch at a
time (``fold``), and produces its findings on demand (``finish``); the
batch entry points (``detect_races``, ``detect_lock_cycles``, ...) are
thin wrappers that :func:`replay` a stored trace through the online
form, so there is exactly one implementation of each analysis.

:class:`DetectorPipeline` bundles the six detectors plus the VM-level
:class:`~repro.classify.symptoms.SymptomTracker` behind one kernel
connection.  Each detector declares the event :attr:`~OnlineDetector.kinds`
its fold reads and skips the rest.  Every detector *folds*: the kernel
buffers a run's events and hands them over in batches
(:meth:`~repro.vm.kernel.Kernel.install_consumer`) of about
:data:`~repro.vm.kernel.CHUNK_EVENTS` events, at step boundaries and
once at the end of the run, and each detector consumes a batch in one
call.  After each batch the pipeline polls the detectors that can end
the run early (:meth:`~OnlineDetector.abort_reason`; a wait-for cycle
among blocked threads is *permanent*); the kernel also hands a batch
over after any step in which such a cycle can close
(:meth:`~repro.vm.kernel.Kernel.park`), so the run stops on the step
that proved the failure.  With the kernel's ``trace_mode="none"``, a
run's memory drops from O(events) to O(detector state) plus one batch —
this is what lets :mod:`repro.engine` campaigns afford full detection
on every run.

Import discipline: the concrete detector modules import this one (for
:class:`OnlineDetector` / :func:`replay`), so this module must only
import them lazily (inside :func:`default_detectors`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.classify.symptoms import CANDIDATES, SymptomTracker
from repro.vm.events import Event, EventKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vm.kernel import Kernel, RunResult

    from .completion import Expectation
    from .report import DetectionReport

__all__ = [
    "OnlineDetector",
    "replay",
    "default_detectors",
    "DetectorPipeline",
    "DetectionSummary",
]


class OnlineDetector:
    """Protocol for a streaming detector.

    Subclasses set :attr:`name` (the key their findings appear under in a
    pipeline), consume events, and return their findings from
    :meth:`finish`.  ``finish`` must be a pure read of the accumulated
    state (idempotent): pipelines may call it more than once.

    A subclass overrides exactly one of :meth:`on_event` (one event at a
    time) and :meth:`fold` (a batch at a time, which a pipeline prefers:
    one call per batch instead of one per event); each default is
    defined through the other.  Either way the result may not depend on
    how the stream is cut into batches.

    :meth:`abort_reason` lets a detector ask for an early end of the run;
    it must only return a reason for findings that are already permanent
    — aborting cannot un-happen an event, but a transient condition would
    make the early-stopped run diverge from the natural one.  A pipeline
    polls it after each batch.

    :attr:`kinds` lists the event kinds whose arrival changes the
    detector's state (bookkeeping-only kinds included); a detector skips
    the other kinds.  ``None`` means every kind.
    """

    #: Stable key identifying the detector's findings in pipeline output.
    name: str = "detector"

    #: Event kinds the fold reads; ``None`` routes every kind here.
    kinds: Optional[FrozenSet[EventKind]] = None

    def on_event(self, event: Event) -> None:
        """Consume one event: a batch of one."""
        self.fold((event,))

    def fold(self, events: Iterable[Event]) -> None:
        """Consume a batch of events in order: each one of :attr:`kinds`
        through :meth:`on_event`."""
        if type(self).on_event is OnlineDetector.on_event:
            raise NotImplementedError(
                f"{type(self).__name__} overrides neither on_event nor fold"
            )
        on_event = self.on_event
        kinds = self.kinds
        for event in events:
            if kinds is None or event.kind in kinds:
                on_event(event)

    def finish(self) -> Any:
        raise NotImplementedError

    def reset(self) -> None:
        """Return to the just-constructed state so the instance can be
        reused for another run.  Clear the state in place (the executor
        resets instead of reallocating), but never an object
        :meth:`finish` has handed out."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support reset()"
        )

    def abort_reason(self) -> Optional[str]:
        """A reason to end the run early, or None to keep going.  Polled
        after each batch, so a reason stops the run at the kernel's next
        hand-over (:meth:`~repro.vm.kernel.Kernel.park`)."""
        return None

    def finding_count(self) -> int:
        """How many findings :meth:`finish` would return.  A detector
        that can count them without building them overrides this; a
        pipeline's :meth:`~DetectorPipeline.summary` reads only counts
        unless a detector found something."""
        return len(self.finish())


def replay(events: Iterable[Event], detector: OnlineDetector) -> OnlineDetector:
    """Fold every event into the detector; returns the detector for
    chaining (``replay(trace, D()).finish()`` is the batch idiom)."""
    detector.fold(events)
    return detector


def default_detectors(
    expectations: Sequence["Expectation"] = (),
    bypass_threshold: int = 3,
) -> List[OnlineDetector]:
    """One instance of each of the six failure detectors, in report order
    (the contention profiler, a measurement, runs only where named)."""
    from .completion import OnlineCompletionChecker
    from .eraser import OnlineLocksetDetector
    from .lockgraph import OnlineLockGraphDetector
    from .starvation import OnlineStarvationDetector
    from .vectorclock import OnlineHbDetector
    from .waitgraph import OnlineWaitGraphDetector

    return [
        OnlineLocksetDetector(),
        OnlineHbDetector(),
        OnlineLockGraphDetector(),
        OnlineWaitGraphDetector(),
        OnlineStarvationDetector(bypass_threshold=bypass_threshold),
        OnlineCompletionChecker(expectations),
    ]


@dataclass(frozen=True)
class DetectionSummary:
    """Compact, picklable projection of a :class:`DetectionReport`.

    This is what engine workers stream back to the campaign aggregator:
    finding *counts* per detector plus the implicated Table-1 failure
    class codes, not the full report objects (which hold event records
    that do not exist under ``trace_mode="none"`` anyway).
    """

    races: int = 0
    hb_races: int = 0
    potential_deadlocks: int = 0
    deadlock_cycle: Tuple[str, ...] = ()
    starvation: int = 0
    completion_violations: int = 0
    reentry: int = 0
    #: primary failure-class codes (e.g. ``"FF-T4"``), diagnosis order
    classes: Tuple[str, ...] = ()
    #: the early-abort reason when the pipeline stopped the run
    aborted: Optional[str] = None

    @property
    def clean(self) -> bool:
        return not (
            self.races
            or self.hb_races
            or self.potential_deadlocks
            or self.deadlock_cycle
            or self.starvation
            or self.completion_violations
            or self.reentry
            or self.classes
        )

    @classmethod
    def from_report(
        cls, report: "DetectionReport", aborted: Optional[str] = None
    ) -> "DetectionSummary":
        return cls(
            races=len(report.races),
            hb_races=len(report.hb_races),
            potential_deadlocks=len(report.potential_deadlocks),
            deadlock_cycle=tuple(report.deadlock_cycle),
            starvation=len(report.starvation),
            completion_violations=len(report.completion_violations),
            reentry=len(report.reentry),
            classes=tuple(c.code for c in report.classes_detected()),
            aborted=aborted,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "races": self.races,
            "hb_races": self.hb_races,
            "potential_deadlocks": self.potential_deadlocks,
            "deadlock_cycle": list(self.deadlock_cycle),
            "starvation": self.starvation,
            "completion_violations": self.completion_violations,
            "reentry": self.reentry,
            "classes": list(self.classes),
            "aborted": self.aborted,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DetectionSummary":
        return cls(
            races=int(data.get("races", 0)),
            hb_races=int(data.get("hb_races", 0)),
            potential_deadlocks=int(data.get("potential_deadlocks", 0)),
            deadlock_cycle=tuple(data.get("deadlock_cycle", ())),
            starvation=int(data.get("starvation", 0)),
            completion_violations=int(data.get("completion_violations", 0)),
            reentry=int(data.get("reentry", 0)),
            classes=tuple(data.get("classes", ())),
            aborted=data.get("aborted"),
        )


#: the detectors whose findings a :class:`DetectionSummary` counts, and
#: those among them whose findings are also evidence of a symptom
_COUNTED = ("lockset", "hb", "lockgraph", "starvation", "completion", "reentry")
_EVIDENCE = ("lockset", "hb", "starvation", "completion", "reentry")

#: the summary of a run in which nothing was found
_CLEAN = DetectionSummary()


def _can_abort(detector: OnlineDetector) -> bool:
    # read through the instance, so a wrapper that takes its inner
    # detector's bound ``abort_reason`` is polled as that detector
    poll = getattr(detector, "abort_reason", None)
    function = getattr(poll, "__func__", None)
    return function not in (None, OnlineDetector.abort_reason)


class DetectorPipeline:
    """A set of online detectors behind one kernel connection.

    :meth:`bind` makes the pipeline a kernel's batch consumer: each batch
    goes to the symptom tracker's ``fold``, then to each detector's in
    report order, and then the abort-capable detectors are polled; the
    first reason wins and is forwarded to the kernel.  :attr:`routes` is
    the same pipeline one event at a time, which :meth:`on_event` walks
    (polling after each event) for replay and per-event callers.

    Args:
        detectors: the detectors to run; defaults to
            :func:`default_detectors` (all six).
        expectations: completion-time expectations for the default set.
        bypass_threshold: starvation threshold for the default set.
        early_stop: honour detector :meth:`~OnlineDetector.abort_reason`
            by asking the bound kernel to end the run early.
    """

    def __init__(
        self,
        detectors: Optional[Sequence[OnlineDetector]] = None,
        *,
        expectations: Sequence["Expectation"] = (),
        bypass_threshold: int = 3,
        early_stop: bool = True,
    ) -> None:
        self.detectors: List[OnlineDetector] = (
            list(detectors)
            if detectors is not None
            else default_detectors(expectations, bypass_threshold)
        )
        self.symptoms = SymptomTracker()
        self.early_stop = early_stop
        #: the abort reason this pipeline raised, if any
        self.aborted: Optional[str] = None
        self._counted = 0
        self._seq_start = 0
        self._kernel: Optional["Kernel"] = None
        #: the detectors polled for an abort reason, in report order
        self._abortable: Tuple[OnlineDetector, ...] = tuple(
            d for d in self.detectors if early_stop and _can_abort(d)
        )
        #: kind -> handlers in delivery order: the table on_event walks
        self.routes: Dict[EventKind, Tuple[Callable[[Event], None], ...]] = {}
        for target in (self.symptoms, *self.detectors):
            for kind in EventKind if target.kinds is None else target.kinds:
                self.routes[kind] = self.routes.get(kind, ()) + (target.on_event,)
        #: the fold of the symptom tracker, then of each detector
        self._folds = (self.symptoms.fold, *[d.fold for d in self.detectors])
        #: detector name -> detector (the last of a name, as in findings)
        self._named = {detector.name: detector for detector in self.detectors}
        #: (name, finding count) of each detector a summary counts
        self._counters = tuple(
            (name, self._named[name].finding_count)
            for name in _COUNTED
            if name in self._named
        )

    def _poll(self) -> None:
        """Ask each abort-capable detector for a reason; the first one is
        kept and forwarded to the bound kernel."""
        for detector in self._abortable:
            reason = detector.abort_reason()
            if reason is not None:
                self.aborted = reason
                if self._kernel is not None:
                    self._kernel.request_abort(reason)
                return

    @property
    def events_seen(self) -> int:
        """Events delivered this run: the bound kernel's emissions since
        :meth:`bind`, plus any fed through :meth:`on_event`."""
        seen = self._counted
        if self._kernel is not None:
            seen += self._kernel.events_emitted - self._seq_start
        return seen

    def bind(self, kernel: "Kernel") -> "DetectorPipeline":
        """Make this pipeline ``kernel``'s batch consumer, and ``kernel``
        the one early aborts are asked of and events are counted on;
        returns self for chaining."""
        self._kernel = kernel
        self._seq_start = kernel.events_emitted
        kernel.install_consumer(self.fold)
        return self

    #: :meth:`bind` under the name older callers use
    attach = bind

    def fold(self, events: Sequence[Event]) -> None:
        """Fold a batch into the symptom tracker and each detector, then
        poll for an abort reason (unless ``early_stop=False``)."""
        for fold in self._folds:
            fold(events)
        if self._abortable and self.aborted is None:
            self._poll()

    def reset(self) -> "DetectorPipeline":
        """Reset every detector and the symptom tracker in place for the
        next run (same observable behaviour as constructing a fresh
        pipeline, minus the per-run allocation) and unbind the kernel;
        returns self for chaining."""
        for detector in self.detectors:
            detector.reset()
        self.symptoms.reset()
        self.aborted = None
        self._counted = 0
        self._kernel = None
        return self

    def on_event(self, event: Event) -> None:
        """Deliver one event to each handler of its kind, then poll."""
        self._counted += 1
        for handler in self.routes.get(event.kind, ()):
            handler(event)
        if self._abortable and self.aborted is None:
            self._poll()

    def findings(self) -> Dict[str, Any]:
        """Raw findings keyed by detector name, after folding what the
        bound kernel still holds."""
        if self._kernel is not None:
            self._kernel.drain()
        return {detector.name: detector.finish() for detector in self.detectors}

    def report(self, result: "RunResult") -> "DetectionReport":
        """Assemble the full :class:`DetectionReport` for a finished run.

        Works under ``trace_mode="none"``: everything the report needs
        was accumulated online; ``result`` only contributes final thread
        states and the run status.
        """
        from .report import assemble_report

        found = self.findings()
        return assemble_report(
            races=found.get("lockset", []),
            hb_races=found.get("hb", []),
            potential_deadlocks=found.get("lockgraph", []),
            deadlock_cycle=found.get("waitgraph", []),
            starvation=found.get("starvation", []),
            completion_violations=found.get("completion", []),
            observations=self.symptoms.observations(result),
            reentry=found.get("reentry", []),
        )

    def summary(self, result: "RunResult") -> DetectionSummary:
        """The compact summary engine workers ship across processes: the
        :class:`DetectionSummary` of :meth:`report`, without assembling
        the report.  It reads each detector's finding count and the
        symptom tracker's observations; only a detector that found
        something builds its findings, whose observations add classes."""
        if self._kernel is not None:
            self._kernel.drain()
        counts = {name: count() for name, count in self._counters}
        observations = self.symptoms.observations(result)
        evidence = [name for name in _EVIDENCE if counts.get(name)]
        if evidence:
            from .report import finding_observations

            found = {name: self._named[name].finish() for name in evidence}
            observations += finding_observations(
                races=found.get("lockset", ()),
                hb_races=found.get("hb", ()),
                starvation=found.get("starvation", ()),
                completion_violations=found.get("completion", ()),
                reentry=found.get("reentry", ()),
            )
        waitgraph = self._named.get("waitgraph")
        cycle = tuple(waitgraph.finish()) if waitgraph is not None else ()
        if not (observations or cycle or self.aborted or any(counts.values())):
            return _CLEAN
        codes = (CANDIDATES[symptom][0].code for symptom, _ in observations)
        return DetectionSummary(
            races=counts.get("lockset", 0),
            hb_races=counts.get("hb", 0),
            potential_deadlocks=counts.get("lockgraph", 0),
            deadlock_cycle=cycle,
            starvation=counts.get("starvation", 0),
            completion_violations=counts.get("completion", 0),
            reentry=counts.get("reentry", 0),
            classes=tuple(dict.fromkeys(codes)),
            aborted=self.aborted,
        )
