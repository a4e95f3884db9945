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
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

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

# Event kinds bound to module names: function bodies read these, never
# ``EventKind.X`` (a Python-level enum class lookup before 3.12).
_MONITOR_ACQUIRE = EventKind.MONITOR_ACQUIRE
_MONITOR_WAIT = EventKind.MONITOR_WAIT
_MONITOR_RELEASE = EventKind.MONITOR_RELEASE
_READ = EventKind.READ
_WRITE = EventKind.WRITE


class FieldState(enum.Enum):
    VIRGIN = "virgin"
    EXCLUSIVE = "exclusive"
    SHARED = "shared"
    SHARED_MODIFIED = "shared_modified"


_EXCLUSIVE = FieldState.EXCLUSIVE
_SHARED = FieldState.SHARED
_SHARED_MODIFIED = FieldState.SHARED_MODIFIED


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


@dataclass(slots=True)
class _FieldInfo:
    """State of one accessed field (a field never accessed has none: it
    is VIRGIN)."""

    state: FieldState
    owner: str
    lockset: FrozenSet[str]
    first_thread: str
    reported: bool = False


class LocksetDetector:
    """Streaming lockset detector; feed accesses, collect race reports."""

    def __init__(self) -> None:
        self._fields: Dict[Tuple[str, str], _FieldInfo] = {}
        self.reports: List[RaceReport] = []

    def observe(self, access: AccessRecord) -> Optional[RaceReport]:
        """Process one access; returns a report when a new race is found."""
        info = self._refine(
            access.component,
            access.field,
            access.thread,
            access.is_write,
            access.locks_held,
        )
        return None if info is None else self._report(info, access)

    def _refine(
        self,
        component: str,
        fieldname: str,
        thread: str,
        is_write: bool,
        locks_held: FrozenSet[str],
    ) -> Optional[_FieldInfo]:
        """Advance the field's state machine by one access; returns the
        field's info when this access exposes a race not yet reported."""
        key = (component, fieldname)
        info = self._fields.get(key)
        if info is None:
            self._fields[key] = _FieldInfo(_EXCLUSIVE, thread, locks_held, thread)
            return None
        # Refine even in the exclusive phase.  Original Eraser defers
        # refinement to tolerate unsynchronized *object initialisation*, but
        # component __init__ runs outside the VM and is invisible here, so
        # every observed access is a real method access and may be counted.
        # This catches two-access races original Eraser reports one access
        # late.  (An empty lockset, or the very set the access holds, is
        # already refined.)
        lockset = info.lockset
        if lockset and lockset is not locks_held:
            lockset = info.lockset = lockset & locks_held
        state = info.state
        if state is _EXCLUSIVE:
            if thread == info.owner:
                return None
            # Second thread arrives: keep refining from the exclusive-phase
            # lockset.
            state = info.state = _SHARED_MODIFIED if is_write else _SHARED
        elif state is _SHARED and is_write:
            state = info.state = _SHARED_MODIFIED
        if state is _SHARED_MODIFIED and not lockset and not info.reported:
            return info
        return None

    def _report(self, info: _FieldInfo, access: AccessRecord) -> RaceReport:
        info.reported = True
        report = RaceReport(
            component=access.component,
            field=access.field,
            first_thread=info.first_thread,
            second_thread=access.thread,
            access=access,
        )
        self.reports.append(report)
        return report

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
    :meth:`repro.vm.trace.Trace.accesses` performs in batch) and folds
    every READ/WRITE straight into the :class:`LocksetDetector` state
    machine.  A thread's held-lock frozenset is built once and reused
    until its next acquire, release or wait; an :class:`AccessRecord` is
    built only for an access that produces a :class:`RaceReport`.
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
        #: thread -> frozenset of its ``_held`` stack, until the stack changes
        self._locksets: Dict[str, FrozenSet[str]] = {}

    def reset(self) -> None:
        detector = self.detector
        for state in (detector._fields, detector.reports, self._held, self._locksets):
            state.clear()

    def fold(self, events: Iterable[Event]) -> None:
        kinds = self.kinds
        detector = self.detector
        refine = detector._refine
        held = self._held
        locksets = self._locksets
        for event in events:
            kind = event.kind
            if kind not in kinds:
                continue
            thread = event.thread
            if kind is _READ or kind is _WRITE:
                locks_held = locksets.get(thread)
                if locks_held is None:
                    locks_held = locksets[thread] = frozenset(held.get(thread, ()))
                component = event.component or "?"
                fieldname = event.detail.get("field", "?")
                is_write = kind is _WRITE
                info = refine(component, fieldname, thread, is_write, locks_held)
                if info is not None:
                    detector._report(
                        info,
                        AccessRecord(
                            thread=thread,
                            component=component,
                            field=fieldname,
                            is_write=is_write,
                            locks_held=locks_held,
                            seq=event.seq,
                            time=event.time,
                        ),
                    )
            elif kind is _MONITOR_ACQUIRE:
                stack = held.setdefault(thread, [])
                monitor = event.monitor or "?"
                for _ in range(event.detail.get("count", 1)):
                    stack.append(monitor)
                locksets.pop(thread, None)
            elif kind is _MONITOR_RELEASE:
                stack = held.setdefault(thread, [])
                monitor = event.monitor
                if monitor in stack:
                    stack.reverse()
                    stack.remove(monitor)
                    stack.reverse()
                locksets.pop(thread, None)
            elif kind is _MONITOR_WAIT:
                # wait releases the lock entirely
                monitor = event.monitor
                held[thread] = [m for m in held.get(thread, ()) if m != monitor]
                locksets.pop(thread, None)

    def finish(self) -> List[RaceReport]:
        return list(self.detector.reports)

    def finding_count(self) -> int:
        return len(self.detector.reports)


def detect_races(trace: Trace) -> List[RaceReport]:
    """Run the lockset algorithm over a whole trace (replays the stored
    events through :class:`OnlineLocksetDetector`)."""
    return replay(trace, OnlineLocksetDetector()).finish()
