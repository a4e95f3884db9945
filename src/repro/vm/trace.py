"""Execution traces and derived views.

The kernel appends every :class:`~repro.vm.events.Event` to a
:class:`Trace`.  All of the paper's analyses are projections of this one
artifact:

* **transition sequences** per thread (T1..T5 firings) — the dynamic
  counterpart of the Figure-1 model, consumed by the CoFG coverage tracker;
* **call records** (begin/end/virtual duration per component call) — the
  inputs to the completion-time oracle the paper's Table 1 keeps pointing
  at ("check completion time of call");
* **access records** (read/write with held locksets) — the inputs to the
  Eraser-style race detector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .events import Event, EventKind

__all__ = ["CallRecord", "AccessRecord", "Trace"]


@dataclass(frozen=True)
class CallRecord:
    """One component-method call made by a thread.

    ``end_time is None`` means the call never completed — the thread was
    still blocked, waiting, or crashed when the run finished.  Completion-
    time checks treat that as an *infinite* completion time.
    """

    thread: str
    component: str
    method: str
    begin_seq: int
    begin_time: int
    end_seq: Optional[int] = None
    end_time: Optional[int] = None
    result: Any = None

    @property
    def completed(self) -> bool:
        return self.end_time is not None

    @property
    def duration(self) -> Optional[int]:
        if self.end_time is None:
            return None
        return self.end_time - self.begin_time


@dataclass(frozen=True)
class AccessRecord:
    """One shared-field access with the thread's lockset at that moment."""

    thread: str
    component: str
    field: str
    is_write: bool
    locks_held: FrozenSet[str]
    seq: int
    time: int


class Trace:
    """An append-only event log with query helpers.

    Projections (``events``, ``by_kind``) are cached, each with the log
    length it was built at: the log only grows, so a cache is current
    exactly while that length is.  Appending therefore costs one list
    append, and detectors that wrap a streaming pass in a batch API do
    not pay an O(n) copy per call; :meth:`iter_kind` avoids materializing
    entirely.
    """

    def __init__(self, events: Optional[Sequence[Event]] = None) -> None:
        self._events: List[Event] = list(events or [])
        self._events_cache: Tuple[Event, ...] = ()
        #: (log length, kind -> events) of the last ``by_kind`` index
        self._kind_index: Tuple[int, Dict[EventKind, List[Event]]] = (0, {})

    # -- building -------------------------------------------------------------

    def append(self, event: Event) -> None:
        self._events.append(event)

    def recorder(self) -> Callable[[Event], None]:
        """The log's own list append, for a caller that appends every
        event of a run (the kernel binds it once, so recording an event
        runs no Python code)."""
        return self._events.append

    # -- raw access -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index: Any) -> Any:
        """The event at an index, or a list of the events in a slice."""
        return self._events[index]

    @property
    def events(self) -> Tuple[Event, ...]:
        if len(self._events_cache) != len(self._events):
            self._events_cache = tuple(self._events)
        return self._events_cache

    # -- filters --------------------------------------------------------------

    def iter_kind(self, *kinds: EventKind) -> Iterator[Event]:
        """Lazily yield events of the given kinds, in trace order."""
        wanted = set(kinds)
        return (e for e in self._events if e.kind in wanted)

    def by_kind(self, *kinds: EventKind) -> List[Event]:
        if len(kinds) != 1:
            return list(self.iter_kind(*kinds))
        indexed, index = self._kind_index
        if indexed != len(self._events):
            index = {}
            for e in self._events:
                index.setdefault(e.kind, []).append(e)
            self._kind_index = (len(self._events), index)
        return list(index.get(kinds[0], ()))

    def by_thread(self, thread: str) -> List[Event]:
        return [e for e in self._events if e.thread == thread]

    def by_monitor(self, monitor: str) -> List[Event]:
        return [e for e in self._events if e.monitor == monitor]

    def threads(self) -> List[str]:
        seen: Dict[str, None] = {}
        for event in self._events:
            seen.setdefault(event.thread)
        return list(seen)

    def monitors(self) -> List[str]:
        seen: Dict[str, None] = {}
        for event in self._events:
            if event.monitor is not None:
                seen.setdefault(event.monitor)
        return list(seen)

    # -- derived views ---------------------------------------------------------

    def transition_sequence(self, thread: str) -> List[str]:
        """The Figure-1 transition firings (T1..T5) of one thread, in order."""
        return [
            e.transition
            for e in self._events
            if e.thread == thread and e.transition is not None
        ]

    def transition_events(self, thread: str) -> List[Event]:
        """The monitor-protocol events of one thread, in order."""
        return [
            e for e in self._events if e.thread == thread and e.transition is not None
        ]

    def call_records(self) -> List[CallRecord]:
        """Pair CALL_BEGIN/CALL_END events into call records.

        Nested calls by the same thread are matched innermost-first (a
        stack per thread), so reentrant component calls pair correctly.
        """
        open_stacks: Dict[str, List[int]] = {}
        order: List[CallRecord] = []
        for event in self._events:
            if event.kind is EventKind.CALL_BEGIN:
                record = CallRecord(
                    thread=event.thread,
                    component=event.component or "?",
                    method=event.method or "?",
                    begin_seq=event.seq,
                    begin_time=event.time,
                )
                open_stacks.setdefault(event.thread, []).append(len(order))
                order.append(record)
            elif event.kind is EventKind.CALL_END:
                stack = open_stacks.get(event.thread, [])
                if not stack:
                    continue  # unmatched end: tolerated, dropped
                index = stack.pop()
                begun = order[index]
                order[index] = CallRecord(
                    thread=begun.thread,
                    component=begun.component,
                    method=begun.method,
                    begin_seq=begun.begin_seq,
                    begin_time=begun.begin_time,
                    end_seq=event.seq,
                    end_time=event.time,
                    result=event.detail.get("result"),
                )
        return order

    def incomplete_calls(self) -> List[CallRecord]:
        """Calls that never reached CALL_END (threads stuck inside)."""
        return [r for r in self.call_records() if not r.completed]

    def accesses(self) -> List[AccessRecord]:
        """All READ/WRITE events as access records with locksets.

        The lockset at each access is reconstructed by replaying acquire/
        release/wait events, so the records are self-contained even when
        the original thread objects are gone.
        """
        held: Dict[str, List[str]] = {}
        records: List[AccessRecord] = []
        for event in self._events:
            stack = held.setdefault(event.thread, [])
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
                held[event.thread] = [m for m in stack if m != event.monitor]
            elif event.kind in (EventKind.READ, EventKind.WRITE):
                records.append(
                    AccessRecord(
                        thread=event.thread,
                        component=event.component or "?",
                        field=event.detail.get("field", "?"),
                        is_write=event.kind is EventKind.WRITE,
                        locks_held=frozenset(held[event.thread]),
                        seq=event.seq,
                        time=event.time,
                    )
                )
        return records

    def notifications(self) -> List[Event]:
        """All NOTIFY / NOTIFY_ALL events."""
        return self.by_kind(EventKind.NOTIFY, EventKind.NOTIFY_ALL)

    def lost_notifications(self) -> List[Event]:
        """Notify events that woke nobody (empty wait set at the time)."""
        return [
            e
            for e in self.notifications()
            if not e.detail.get("woken")
        ]

    def clock_of_time(self) -> Dict[int, int]:
        """Map kernel virtual time -> abstract clock value at that time."""
        mapping: Dict[int, int] = {}
        clock = 0
        for event in self._events:
            if event.kind is EventKind.CLOCK_TICK:
                clock = event.detail.get("now", clock + 1)
            mapping[event.time] = clock
        return mapping

    def summary(self) -> Dict[str, int]:
        """Event-count histogram by kind (for quick diagnostics)."""
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.kind.value] = counts.get(event.kind.value, 0) + 1
        return counts
