"""Happens-before (vector-clock) data-race detection.

A precision upgrade over the lockset algorithm (:mod:`repro.detect.eraser`):
lockset reports any inconsistently-locked shared access, which flags
benign patterns that are ordered by other synchronization (e.g. hand-offs
through a monitor the field itself is not guarded by).  Happens-before
analysis in the FastTrack/DJIT+ tradition reports exactly the access
pairs with *no ordering at all* — at least one write, neither access
happens-before the other.

Happens-before edges recovered from a VM trace:

* program order within each thread;
* monitor release -> subsequent acquire of the same monitor (including
  the release performed by ``wait`` and the reacquisition after notify);
* ``notify``/``notifyAll`` -> the wakeup of each woken thread;
* thread start: spawn order gives no edge (threads are roots), matching
  the component-testing assumption of concurrent client threads.

The Ext-F bench compares lockset and happens-before verdicts on the
faulty components and on a benign-handoff component that lockset
overreports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.vm.events import Event, EventKind
from repro.vm.trace import Trace

from repro.run.registry import register_detector

from .online import OnlineDetector, replay

__all__ = ["VectorClock", "HbRace", "OnlineHbDetector", "detect_races_hb"]


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
        return all(
            clock <= other._clocks.get(thread, 0)
            for thread, clock in self._clocks.items()
        )

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


@dataclass
class _Epoch:
    """Last access bookkeeping for one field."""

    last_write_vc: Optional[VectorClock] = None
    last_write_thread: Optional[str] = None
    last_write_seq: int = -1
    # reads since the last write: thread -> (vc, seq)
    reads: Dict[str, Tuple[VectorClock, int]] = field(default_factory=dict)


@register_detector("hb")
class OnlineHbDetector(OnlineDetector):
    """Streaming vector-clock race detection (FastTrack-style)."""

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
        self._fields: Dict[Tuple[str, str], _Epoch] = {}
        self.races: List[HbRace] = []

    def reset(self) -> None:
        self.__init__(self.max_reports)

    def _vc_of(self, thread: str) -> VectorClock:
        if thread not in self._thread_vc:
            self._thread_vc[thread] = VectorClock({thread: 1})
        return self._thread_vc[thread]

    def on_event(self, event: Event) -> None:
        thread = event.thread
        vc = self._vc_of(thread)
        kind = event.kind

        if kind is EventKind.MONITOR_ACQUIRE:
            released = self._monitor_vc.get(event.monitor)
            if released is not None:
                vc.join(released)
            vc.tick(thread)
        elif kind in (EventKind.MONITOR_RELEASE, EventKind.MONITOR_WAIT):
            # wait releases the lock exactly like a release does
            self._monitor_vc.setdefault(event.monitor, VectorClock()).join(vc)
            vc.tick(thread)
        elif kind in (EventKind.NOTIFY, EventKind.NOTIFY_ALL):
            for woken in event.detail.get("woken", []):
                self._notify_vc[(event.monitor, woken)] = vc.copy()
            vc.tick(thread)
        elif kind is EventKind.MONITOR_NOTIFIED:
            sent = self._notify_vc.pop((event.monitor, thread), None)
            if sent is not None:
                vc.join(sent)
            vc.tick(thread)
        elif kind in (EventKind.READ, EventKind.WRITE):
            key = (event.component or "?", event.detail.get("field", "?"))
            epoch = self._fields.setdefault(key, _Epoch())
            is_write = kind is EventKind.WRITE
            # conflict with the last write
            if (
                epoch.last_write_vc is not None
                and epoch.last_write_thread != thread
                and not epoch.last_write_vc.happens_before(vc)
                and len(self.races) < self.max_reports
            ):
                self.races.append(
                    HbRace(
                        component=key[0],
                        field=key[1],
                        first_thread=epoch.last_write_thread or "?",
                        first_seq=epoch.last_write_seq,
                        first_is_write=True,
                        second_thread=thread,
                        second_seq=event.seq,
                        second_is_write=is_write,
                    )
                )
            if is_write:
                # a write also conflicts with unordered prior reads
                for reader, (read_vc, read_seq) in epoch.reads.items():
                    if (
                        reader != thread
                        and not read_vc.happens_before(vc)
                        and len(self.races) < self.max_reports
                    ):
                        self.races.append(
                            HbRace(
                                component=key[0],
                                field=key[1],
                                first_thread=reader,
                                first_seq=read_seq,
                                first_is_write=False,
                                second_thread=thread,
                                second_seq=event.seq,
                                second_is_write=True,
                            )
                        )
                epoch.last_write_vc = vc.copy()
                epoch.last_write_thread = thread
                epoch.last_write_seq = event.seq
                epoch.reads.clear()
            else:
                epoch.reads[thread] = (vc.copy(), event.seq)
            vc.tick(thread)

    def finish(self) -> List[HbRace]:
        return list(self.races)


def detect_races_hb(trace: Trace, max_reports: int = 100) -> List[HbRace]:
    """Vector-clock race detection over a whole trace (replays the stored
    events through :class:`OnlineHbDetector`)."""
    return replay(trace, OnlineHbDetector(max_reports=max_reports)).finish()
