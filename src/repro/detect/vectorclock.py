"""Happens-before data-race detection with per-field epochs.

A precision upgrade over the lockset algorithm (:mod:`repro.detect.eraser`):
lockset reports any inconsistently-locked shared access, which flags
benign patterns that are ordered by other synchronization (e.g. hand-offs
through a monitor the field itself is not guarded by).  Happens-before
analysis reports exactly the access pairs with *no ordering at all* — at
least one write, neither access happens-before the other.

Happens-before edges recovered from a VM trace:

* program order within each thread;
* monitor release -> subsequent acquire of the same monitor (including
  the release performed by ``wait`` and the reacquisition after notify);
* ``notify``/``notifyAll`` -> the wakeup of each woken thread;
* thread start: spawn order gives no edge (threads are roots), matching
  the component-testing assumption of concurrent client threads.

Thread and monitor clocks are full vector clocks: a thread joins the
monitor's clock at acquire and the notifier's at its wakeup, and joins
its own into the monitor's at release and wait.  A notify stores one
copy of the notifier's clock, shared by every thread it woke.  Fields
keep epochs, as in FastTrack (Flanagan & Freund, PLDI 2009): the last
write as ``(thread, the thread's own clock entry, seq)`` and the reads
since that write as ``thread -> (own clock entry, seq)``, never a copy
of a clock.

The epochs are exact.  Every event this detector handles ticks its own
thread after any snapshot or export it makes, and no event both joins
and exports.  So a thread's clock while its own entry is ``c`` is one
state: the one every snapshot taken at ``c`` saw.  A clock holding
entry ``c' >= c`` for thread ``w`` got it, through joins, from a
snapshot of ``w`` at ``c'``, which is at least ``w``'s state at ``c``.
Therefore the write ``c@w`` happens before the current access exactly
when ``c <= current[w]``, which is what comparing the whole clock copied
at the write would say.  The same races come out, in the same order,
with the same ``max_reports`` cut, as from a detector that copies the
clock at every access (``tests/detect/hb_reference.py`` keeps that one
as the reference).

The Ext-F bench compares lockset and happens-before verdicts on the
faulty components and on a benign-handoff component that lockset
overreports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.vm.events import Event, EventKind
from repro.vm.trace import Trace

from repro.run.registry import register_detector

from .online import OnlineDetector, replay

__all__ = ["VectorClock", "HbRace", "OnlineHbDetector", "detect_races_hb"]

# Event kinds bound to module names: function bodies read these, never
# ``EventKind.X`` (a Python-level enum class lookup before 3.12).
_MONITOR_ACQUIRE = EventKind.MONITOR_ACQUIRE
_MONITOR_WAIT = EventKind.MONITOR_WAIT
_MONITOR_RELEASE = EventKind.MONITOR_RELEASE
_MONITOR_NOTIFIED = EventKind.MONITOR_NOTIFIED
_NOTIFY = EventKind.NOTIFY
_NOTIFY_ALL = EventKind.NOTIFY_ALL
_READ = EventKind.READ
_WRITE = EventKind.WRITE



class VectorClock:
    """A sparse integer vector clock keyed by thread name."""

    __slots__ = ("_clocks",)

    def __init__(self, clocks: Optional[Dict[str, int]] = None) -> None:
        self._clocks: Dict[str, int] = dict(clocks or {})

    def copy(self) -> "VectorClock":
        return VectorClock(self._clocks)

    def get(self, thread: str) -> int:
        return self._clocks.get(thread, 0)

    def tick(self, thread: str) -> None:
        self._clocks[thread] = self._clocks.get(thread, 0) + 1

    def join(self, other: "VectorClock") -> None:
        for thread, clock in other._clocks.items():
            if clock > self._clocks.get(thread, 0):
                self._clocks[thread] = clock

    def happens_before(self, other: "VectorClock") -> bool:
        """True when self <= other componentwise (and they differ —
        equality also counts as ordered for race purposes)."""
        theirs = other._clocks.get
        for thread, clock in self._clocks.items():
            if clock > theirs(thread, 0):
                return False
        return True

    def __repr__(self) -> str:
        inner = ", ".join(f"{t}:{c}" for t, c in sorted(self._clocks.items()))
        return f"VC({{{inner}}})"


@dataclass(frozen=True)
class HbRace:
    """An unordered conflicting access pair on ``component.field``."""

    component: str
    field: str
    first_thread: str
    first_seq: int
    first_is_write: bool
    second_thread: str
    second_seq: int
    second_is_write: bool

    def __str__(self) -> str:
        kinds = (
            ("write" if self.first_is_write else "read"),
            ("write" if self.second_is_write else "read"),
        )
        return (
            f"happens-before race on {self.component}.{self.field}: "
            f"{kinds[0]} by {self.first_thread!r} (seq {self.first_seq}) is "
            f"unordered with {kinds[1]} by {self.second_thread!r} "
            f"(seq {self.second_seq})"
        )


class _FieldEpochs:
    """Last access bookkeeping for one field, as epochs."""

    __slots__ = ("write", "reads")

    def __init__(self) -> None:
        #: the last write: (thread, its own clock entry, seq), or None
        self.write: Optional[Tuple[str, int, int]] = None
        #: reads since the last write: thread -> (its own clock entry, seq)
        self.reads: Dict[str, Tuple[int, int]] = {}


@register_detector("hb")
class OnlineHbDetector(OnlineDetector):
    """Streaming happens-before race detection: vector clocks per thread
    and monitor, epochs per field (see the module docstring)."""

    name = "hb"

    kinds = frozenset(
        {
            EventKind.MONITOR_ACQUIRE,
            EventKind.MONITOR_RELEASE,
            EventKind.MONITOR_WAIT,
            EventKind.NOTIFY,
            EventKind.NOTIFY_ALL,
            EventKind.MONITOR_NOTIFIED,
            EventKind.READ,
            EventKind.WRITE,
        }
    )

    def __init__(self, max_reports: int = 100) -> None:
        self.max_reports = max_reports
        self._thread_vc: Dict[str, VectorClock] = {}
        self._monitor_vc: Dict[str, VectorClock] = {}
        self._notify_vc: Dict[Tuple[str, str], VectorClock] = {}  # (monitor, woken)
        self._fields: Dict[Tuple[str, str], _FieldEpochs] = {}
        self.races: List[HbRace] = []

    def reset(self) -> None:
        for state in (
            self._thread_vc,
            self._monitor_vc,
            self._notify_vc,
            self._fields,
            self.races,
        ):
            state.clear()

    def fold(self, events: Iterable[Event]) -> None:
        kinds = self.kinds
        thread_vc = self._thread_vc
        monitor_vc = self._monitor_vc
        notify_vc = self._notify_vc
        fields = self._fields
        races = self.races
        max_reports = self.max_reports
        for event in events:
            kind = event.kind
            if kind not in kinds:
                continue
            thread = event.thread
            vc = thread_vc.get(thread)
            if vc is None:
                vc = thread_vc[thread] = VectorClock({thread: 1})
            clocks = vc._clocks

            if kind is _READ or kind is _WRITE:
                seq = event.seq
                key = (event.component or "?", event.detail.get("field", "?"))
                slot = fields.get(key)
                if slot is None:
                    slot = fields[key] = _FieldEpochs()
                is_write = kind is _WRITE
                # conflict with the last write: c@w happens before this
                # access exactly when c <= this thread's entry for w
                write = slot.write
                if (
                    write is not None
                    and write[0] != thread
                    and write[1] > clocks.get(write[0], 0)
                    and len(races) < max_reports
                ):
                    races.append(
                        HbRace(
                            component=key[0],
                            field=key[1],
                            first_thread=write[0] or "?",
                            first_seq=write[2],
                            first_is_write=True,
                            second_thread=thread,
                            second_seq=seq,
                            second_is_write=is_write,
                        )
                    )
                own = clocks[thread]
                if is_write:
                    # a write also conflicts with unordered prior reads
                    for reader, (read_clock, read_seq) in slot.reads.items():
                        if (
                            reader != thread
                            and read_clock > clocks.get(reader, 0)
                            and len(races) < max_reports
                        ):
                            races.append(
                                HbRace(
                                    component=key[0],
                                    field=key[1],
                                    first_thread=reader,
                                    first_seq=read_seq,
                                    first_is_write=False,
                                    second_thread=thread,
                                    second_seq=seq,
                                    second_is_write=True,
                                )
                            )
                    slot.write = (thread, own, seq)
                    slot.reads.clear()
                else:
                    slot.reads[thread] = (own, seq)
                clocks[thread] = own + 1
            elif kind is _MONITOR_ACQUIRE:
                released = monitor_vc.get(event.monitor)
                if released is not None:
                    vc.join(released)
                clocks[thread] += 1
            elif kind is _MONITOR_RELEASE or kind is _MONITOR_WAIT:
                # wait releases the lock exactly like a release does
                monitor = event.monitor
                released = monitor_vc.get(monitor)
                if released is None:
                    released = monitor_vc[monitor] = VectorClock()
                released.join(vc)
                clocks[thread] += 1
            elif kind is _NOTIFY or kind is _NOTIFY_ALL:
                woken = event.detail.get("woken")
                if woken:
                    # one snapshot, shared: a notified join only reads it
                    sent = vc.copy()
                    monitor = event.monitor
                    for waiter in woken:
                        notify_vc[(monitor, waiter)] = sent
                clocks[thread] += 1
            elif kind is _MONITOR_NOTIFIED:
                sent = notify_vc.pop((event.monitor, thread), None)
                if sent is not None:
                    vc.join(sent)
                clocks[thread] += 1

    def finish(self) -> List[HbRace]:
        return list(self.races)

    def finding_count(self) -> int:
        return len(self.races)


def detect_races_hb(trace: Trace, max_reports: int = 100) -> List[HbRace]:
    """Vector-clock race detection over a whole trace (replays the stored
    events through :class:`OnlineHbDetector`)."""
    return replay(trace, OnlineHbDetector(max_reports=max_reports)).finish()
