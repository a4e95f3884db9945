"""Premature-reentry detection: the dynamic face of EF-T5.

Table 1's EF-T5 failure — a guarded ``wait`` weakened from ``while`` to
``if`` — leaves no blocked thread behind: the woken thread *proceeds*,
re-entering the critical section although its guard may still hold.  The
completion-time oracle can catch the consequence, but only with
schedule-specific expectations; this detector catches the *mechanism*
from the event stream alone, so corpus sweeps can label ``if``-guard
mutants without hand-written oracles.

The heuristic rides on how monitor components evaluate guards: the reads
a thread performs between entering a method (or waking) and calling
``wait`` are the guard's final evaluation.  A thread woken from ``wait``
inside a correct ``while`` loop re-evaluates that guard — its first
post-wake reads reproduce the guard's read sequence — before it writes
component state or leaves the monitor.  Two flags follow:

* **premature write / exit**: after a wake, the thread writes the waited
  component (or releases its monitor / ends the call) although no
  non-empty suffix of the recorded guard-read sequence was re-read first.
  Suffix matching absorbs set-up reads that pollute the recorded guard
  (ticket allocation before a ``while now_serving != ticket`` loop) while
  still flagging guards that were never re-checked.
* **crash after wake**: a thread that woke from ``wait`` inside a call
  and then crashes in that call tripped over exactly the state its guard
  was supposed to re-check (the empty-buffer ``IndexError`` of an
  ``if``-guarded consumer).

Known limitation: a guard whose *proceed* path short-circuits
(``A and B`` with ``A`` falsified) legitimately re-reads only a prefix,
which this detector may flag; the corpus components guard with single
fields or ``or``-chains, where the proceed path reads the full sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.run.registry import register_detector
from repro.vm.events import Event, EventKind

from .online import OnlineDetector, replay

__all__ = ["OnlineReentryDetector", "ReentryFinding", "detect_reentry"]


@dataclass(frozen=True)
class ReentryFinding:
    """One premature re-entry after a wake-up."""

    thread: str
    component: str
    method: str
    #: ``"premature-write"``, ``"premature-exit"``, or ``"crash-after-wake"``
    kind: str
    #: the guard-read sequence recorded before the wait
    guard: Tuple[str, ...]
    #: the fields re-read between the wake and the flagged effect
    reread: Tuple[str, ...]

    def __str__(self) -> str:
        guard = ", ".join(self.guard) or "-"
        reread = ", ".join(self.reread) or "none"
        return (
            f"{self.thread} in {self.component}.{self.method}: {self.kind} "
            f"after wake (guard reads: {guard}; re-read: {reread})"
        )


@dataclass
class _Frame:
    """One open component call of one thread."""

    component: str
    method: str
    #: ordered, deduplicated component-field reads since the frame opened
    #: or the thread last woke (the candidate guard sequence)
    reads: List[str] = field(default_factory=list)
    #: the guard sequence captured at the most recent ``wait``
    guard: Tuple[str, ...] = ()
    #: "run" | "waiting" | "woken"
    state: str = "run"
    #: the thread woke from a wait at least once in this frame
    woke: bool = False
    flagged: bool = False


def _guard_reread(guard: Tuple[str, ...], reads: List[str]) -> bool:
    """True when some non-empty suffix of ``guard`` was re-read, in order,
    as a prefix of the post-wake ``reads``."""
    for start in range(len(guard)):
        suffix = guard[start:]
        if tuple(reads[: len(suffix)]) == suffix:
            return True
    return False


@register_detector("reentry")
class OnlineReentryDetector(OnlineDetector):
    """Streaming premature-reentry detection (see module docstring).

    State is O(threads × open calls): a frame stack per thread with the
    running guard-read sequence and the wake watch.  Not part of the
    seven-detector default set — corpus sweeps (and anyone hunting EF-T5
    specifically) opt in by name.
    """

    name = "reentry"

    kinds = frozenset(
        {
            EventKind.CALL_BEGIN,
            EventKind.CALL_END,
            EventKind.READ,
            EventKind.WRITE,
            EventKind.MONITOR_WAIT,
            EventKind.MONITOR_NOTIFIED,
            EventKind.SPURIOUS_WAKEUP,
            EventKind.MONITOR_RELEASE,
            EventKind.THREAD_END,
            EventKind.THREAD_CRASH,
        }
    )

    def __init__(self) -> None:
        self._frames: Dict[str, List[_Frame]] = {}
        self._findings: List[ReentryFinding] = []

    def reset(self) -> None:
        self.__init__()

    # -- helpers -----------------------------------------------------------

    def _top(self, thread: str) -> Optional[_Frame]:
        stack = self._frames.get(thread)
        return stack[-1] if stack else None

    def _flag(self, thread: str, frame: _Frame, kind: str) -> None:
        if frame.flagged:
            return
        frame.flagged = True
        frame.state = "run"
        self._findings.append(
            ReentryFinding(
                thread=thread,
                component=frame.component,
                method=frame.method,
                kind=kind,
                guard=frame.guard,
                reread=tuple(frame.reads),
            )
        )

    def _watch_write_or_exit(self, thread: str, frame: _Frame, kind: str) -> None:
        """A post-wake effect happened: flag unless the guard was re-read."""
        if frame.state == "woken" and not _guard_reread(frame.guard, frame.reads):
            self._flag(thread, frame, kind)
        else:
            frame.state = "run"

    # -- event fold --------------------------------------------------------

    def on_event(self, event: Event) -> None:
        kind = event.kind
        thread = event.thread
        if kind is EventKind.CALL_BEGIN:
            self._frames.setdefault(thread, []).append(
                _Frame(component=event.component or "?", method=event.method or "?")
            )
            return
        frame = self._top(thread)
        if frame is None:
            if kind in (EventKind.THREAD_END, EventKind.THREAD_CRASH):
                self._frames.pop(thread, None)
            return
        if kind is EventKind.READ:
            if event.component != frame.component:
                return
            fieldname = str(event.detail.get("field", "?"))
            if fieldname not in frame.reads:
                frame.reads.append(fieldname)
            if frame.state == "woken" and _guard_reread(frame.guard, frame.reads):
                frame.state = "run"
        elif kind is EventKind.WRITE:
            if event.component == frame.component and frame.state == "woken":
                self._watch_write_or_exit(thread, frame, "premature-write")
        elif kind is EventKind.MONITOR_WAIT:
            # A wait (or re-wait) never flags: the guard held.  Capture the
            # reads since the frame opened / the last wake as the guard.
            frame.guard = tuple(frame.reads)
            frame.reads = []
            frame.state = "waiting"
        elif kind in (EventKind.MONITOR_NOTIFIED, EventKind.SPURIOUS_WAKEUP):
            if frame.state != "waiting":
                return
            frame.woke = True
            frame.reads = []
            # An unguarded wait (no component reads before it) is the
            # signal idiom, not a guarded wait: nothing to re-check.
            frame.state = "woken" if frame.guard else "run"
        elif kind is EventKind.MONITOR_RELEASE:
            if event.monitor == frame.component and frame.state == "woken":
                self._watch_write_or_exit(thread, frame, "premature-exit")
        elif kind is EventKind.CALL_END:
            if event.component == frame.component and event.method == frame.method:
                if frame.state == "woken":
                    self._watch_write_or_exit(thread, frame, "premature-exit")
                stack = self._frames.get(thread)
                if stack:
                    stack.pop()
        elif kind is EventKind.THREAD_CRASH:
            for open_frame in reversed(self._frames.get(thread, [])):
                if open_frame.woke and not open_frame.flagged:
                    self._flag(thread, open_frame, "crash-after-wake")
                    break
            self._frames.pop(thread, None)
        elif kind is EventKind.THREAD_END:
            self._frames.pop(thread, None)

    def finish(self) -> List[ReentryFinding]:
        return list(self._findings)


def detect_reentry(trace: Iterable[Event]) -> List[ReentryFinding]:
    """Batch form: replay a stored trace through the online detector."""
    return replay(trace, OnlineReentryDetector()).finish()
