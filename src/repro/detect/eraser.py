"""Eraser-style lockset data-race detection (Savage et al., cited by the
paper as the technique behind JPF's runtime analysis).

Table 1 names "static analysis / model checking (often combined with
dynamic analysis)" as the detection technique for FF-T1 (interference /
data race).  The lockset algorithm is the canonical dynamic half: for each
shared field ``v`` maintain a candidate set ``C(v)`` of locks that were
held on *every* access so far; when ``C(v)`` becomes empty and the field
is write-shared, no lock consistently protects it — a race.

The per-field state machine follows the original paper:

* ``VIRGIN`` — never accessed;
* ``EXCLUSIVE`` — accessed by a single thread only (no refinement yet:
  initialisation is commonly unsynchronized);
* ``SHARED`` — read by multiple threads, written by at most the first
  (refine ``C(v)``, report nothing: read-sharing is benign);
* ``SHARED_MODIFIED`` — written by multiple threads or written after
  sharing (refine ``C(v)``; report when it empties).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.vm.events import Event, EventKind
from repro.vm.trace import AccessRecord, Trace

from repro.run.registry import register_detector

from .online import OnlineDetector, replay

__all__ = [
    "FieldState",
    "RaceReport",
    "LocksetDetector",
    "OnlineLocksetDetector",
    "detect_races",
]


class FieldState(enum.Enum):
    VIRGIN = "virgin"
    EXCLUSIVE = "exclusive"
    SHARED = "shared"
    SHARED_MODIFIED = "shared_modified"


@dataclass(frozen=True)
class RaceReport:
    """One reported data race on ``component.field``.

    ``first_thread``/``second_thread`` witness the unsynchronized sharing;
    ``access`` is the access at which the candidate lockset emptied.
    """

    component: str
    field: str
    first_thread: str
    second_thread: str
    access: AccessRecord

    @property
    def key(self) -> Tuple[str, str]:
        return (self.component, self.field)

    def __str__(self) -> str:
        return (
            f"data race on {self.component}.{self.field}: threads "
            f"{self.first_thread!r} and {self.second_thread!r} access it "
            f"with no common lock (at seq {self.access.seq})"
        )


@dataclass
class _FieldInfo:
    state: FieldState = FieldState.VIRGIN
    owner: Optional[str] = None
    lockset: Optional[FrozenSet[str]] = None
    reported: bool = False
    first_thread: Optional[str] = None


class LocksetDetector:
    """Streaming lockset detector; feed accesses, collect race reports."""

    def __init__(self) -> None:
        self._fields: Dict[Tuple[str, str], _FieldInfo] = {}
        self.reports: List[RaceReport] = []

    def observe(self, access: AccessRecord) -> Optional[RaceReport]:
        """Process one access; returns a report when a new race is found."""
        info = self._fields.setdefault(
            (access.component, access.field), _FieldInfo()
        )
        if info.state is FieldState.VIRGIN:
            info.state = FieldState.EXCLUSIVE
            info.owner = access.thread
            info.first_thread = access.thread
            info.lockset = access.locks_held
            return None
        if info.state is FieldState.EXCLUSIVE:
            if access.thread == info.owner:
                # Refine even in the exclusive phase.  Original Eraser
                # defers refinement to tolerate unsynchronized *object
                # initialisation*, but component __init__ runs outside the
                # VM and is invisible here, so every observed access is a
                # real method access and may be counted.  This catches
                # two-access races original Eraser reports one access late.
                assert info.lockset is not None
                info.lockset = info.lockset & access.locks_held
                return None
            # Second thread arrives: keep refining from the exclusive-phase
            # lockset.
            assert info.lockset is not None
            info.lockset = info.lockset & access.locks_held
            info.state = (
                FieldState.SHARED_MODIFIED if access.is_write else FieldState.SHARED
            )
            return self._check(info, access)
        assert info.lockset is not None
        info.lockset = info.lockset & access.locks_held
        if info.state is FieldState.SHARED and access.is_write:
            info.state = FieldState.SHARED_MODIFIED
        return self._check(info, access)

    def _check(self, info: _FieldInfo, access: AccessRecord) -> Optional[RaceReport]:
        if (
            info.state is FieldState.SHARED_MODIFIED
            and info.lockset is not None
            and not info.lockset
            and not info.reported
        ):
            info.reported = True
            report = RaceReport(
                component=access.component,
                field=access.field,
                first_thread=info.first_thread or "?",
                second_thread=access.thread,
                access=access,
            )
            self.reports.append(report)
            return report
        return None

    def field_state(self, component: str, fieldname: str) -> FieldState:
        info = self._fields.get((component, fieldname))
        return info.state if info else FieldState.VIRGIN

    def candidate_lockset(
        self, component: str, fieldname: str
    ) -> Optional[FrozenSet[str]]:
        info = self._fields.get((component, fieldname))
        return info.lockset if info else None


@register_detector("lockset")
class OnlineLocksetDetector(OnlineDetector):
    """Streaming Eraser over raw events.

    Reconstructs each thread's lockset incrementally (the same replay
    :meth:`repro.vm.trace.Trace.accesses` performs in batch) and feeds
    every READ/WRITE to the :class:`LocksetDetector` state machine.
    """

    name = "lockset"

    kinds = frozenset(
        {
            EventKind.MONITOR_ACQUIRE,
            EventKind.MONITOR_RELEASE,
            EventKind.MONITOR_WAIT,
            EventKind.READ,
            EventKind.WRITE,
        }
    )

    def __init__(self) -> None:
        self.detector = LocksetDetector()
        self._held: Dict[str, List[str]] = {}

    def reset(self) -> None:
        self.__init__()

    def on_event(self, event: Event) -> None:
        stack = self._held.setdefault(event.thread, [])
        if event.kind is EventKind.MONITOR_ACQUIRE:
            for _ in range(event.detail.get("count", 1)):
                stack.append(event.monitor or "?")
        elif event.kind is EventKind.MONITOR_RELEASE:
            if event.monitor in stack:
                stack.reverse()
                stack.remove(event.monitor)
                stack.reverse()
        elif event.kind is EventKind.MONITOR_WAIT:
            # wait releases the lock entirely
            self._held[event.thread] = [m for m in stack if m != event.monitor]
        elif event.kind in (EventKind.READ, EventKind.WRITE):
            self.detector.observe(
                AccessRecord(
                    thread=event.thread,
                    component=event.component or "?",
                    field=event.detail.get("field", "?"),
                    is_write=event.kind is EventKind.WRITE,
                    locks_held=frozenset(self._held[event.thread]),
                    seq=event.seq,
                    time=event.time,
                )
            )

    def finish(self) -> List[RaceReport]:
        return list(self.detector.reports)


def detect_races(trace: Trace) -> List[RaceReport]:
    """Run the lockset algorithm over a whole trace (replays the stored
    events through :class:`OnlineLocksetDetector`)."""
    return replay(trace, OnlineLocksetDetector()).finish()
