"""The full-vector-clock happens-before detector, kept as a reference.

Every read and write stores a copy of the accessing thread's whole
vector clock, and every check compares two whole clocks, so this form is
obviously the textbook definition: an access pair races when at least
one is a write and neither clock is ordered before the other.
:class:`repro.detect.vectorclock.OnlineHbDetector` keeps epochs instead;
the HB tests assert both report the same :class:`HbRace` list, in the
same order, on every stream they are fed.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.detect.vectorclock import HbRace, VectorClock
from repro.vm.events import Event, EventKind

_RELEASES = frozenset({EventKind.MONITOR_RELEASE, EventKind.MONITOR_WAIT})
_NOTIFIES = frozenset({EventKind.NOTIFY, EventKind.NOTIFY_ALL})
_ACCESSES = frozenset({EventKind.READ, EventKind.WRITE})


@dataclass
class _FieldClocks:
    """Last access bookkeeping for one field."""

    last_write_vc: Optional[VectorClock] = None
    last_write_thread: Optional[str] = None
    last_write_seq: int = -1
    # reads since the last write: thread -> (vc, seq)
    reads: Dict[str, Tuple[VectorClock, int]] = field(default_factory=dict)


class ReferenceHbDetector:
    """Streaming race detection with a clock copy per access and notify."""

    def __init__(self, max_reports: int = 100) -> None:
        self.max_reports = max_reports
        self._thread_vc: Dict[str, VectorClock] = {}
        self._monitor_vc: Dict[str, VectorClock] = {}
        self._notify_vc: Dict[Tuple[str, str], VectorClock] = {}  # (monitor, woken)
        self._fields: Dict[Tuple[str, str], _FieldClocks] = {}
        self.races: List[HbRace] = []

    def on_event(self, event: Event) -> None:
        thread = event.thread
        vc = self._thread_vc.get(thread)
        if vc is None:
            vc = self._thread_vc[thread] = VectorClock({thread: 1})
        kind = event.kind

        if kind is EventKind.MONITOR_ACQUIRE:
            released = self._monitor_vc.get(event.monitor)
            if released is not None:
                vc.join(released)
            vc.tick(thread)
        elif kind in _RELEASES:
            # wait releases the lock exactly like a release does
            released = self._monitor_vc.get(event.monitor)
            if released is None:
                released = self._monitor_vc[event.monitor] = VectorClock()
            released.join(vc)
            vc.tick(thread)
        elif kind in _NOTIFIES:
            for woken in event.detail.get("woken", []):
                self._notify_vc[(event.monitor, woken)] = vc.copy()
            vc.tick(thread)
        elif kind is EventKind.MONITOR_NOTIFIED:
            sent = self._notify_vc.pop((event.monitor, thread), None)
            if sent is not None:
                vc.join(sent)
            vc.tick(thread)
        elif kind in _ACCESSES:
            key = (event.component or "?", event.detail.get("field", "?"))
            clocks = self._fields.get(key)
            if clocks is None:
                clocks = self._fields[key] = _FieldClocks()
            is_write = kind is EventKind.WRITE
            # conflict with the last write
            if (
                clocks.last_write_vc is not None
                and clocks.last_write_thread != thread
                and not clocks.last_write_vc.happens_before(vc)
                and len(self.races) < self.max_reports
            ):
                self.races.append(
                    HbRace(
                        component=key[0],
                        field=key[1],
                        first_thread=clocks.last_write_thread or "?",
                        first_seq=clocks.last_write_seq,
                        first_is_write=True,
                        second_thread=thread,
                        second_seq=event.seq,
                        second_is_write=is_write,
                    )
                )
            if is_write:
                # a write also conflicts with unordered prior reads
                for reader, (read_vc, read_seq) in clocks.reads.items():
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
                clocks.last_write_vc = vc.copy()
                clocks.last_write_thread = thread
                clocks.last_write_seq = event.seq
                clocks.reads.clear()
            else:
                clocks.reads[thread] = (vc.copy(), event.seq)
            vc.tick(thread)

    def finish(self) -> List[HbRace]:
        return list(self.races)


def reference_races(events, max_reports: int = 100) -> List[HbRace]:
    """The reference detector's reports over a whole event stream."""
    detector = ReferenceHbDetector(max_reports=max_reports)
    for event in events:
        detector.on_event(event)
    return detector.finish()
