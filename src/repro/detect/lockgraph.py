"""Lock-order-graph deadlock detection (the LockTree/Goodlock family the
paper cites via JPF's runtime analysis).

FF-T2/FF-T4 deadlocks through nested locking (Section 3.1's two-lock
example) leave a static footprint even in runs that happen not to
deadlock: if thread 1 ever acquires ``B`` while holding ``A`` and thread 2
acquires ``A`` while holding ``B``, the lock-order graph ``A -> B -> A``
has a cycle and some schedule deadlocks.  This detector builds that graph
from a trace and reports its cycles as *potential* deadlocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

import networkx as nx

from repro.vm.events import Event, EventKind
from repro.vm.trace import Trace

from repro.run.registry import register_detector

from .online import OnlineDetector, replay

__all__ = [
    "LockOrderEdge",
    "PotentialDeadlock",
    "OnlineLockGraphDetector",
    "build_lock_graph",
    "detect_lock_cycles",
]


@dataclass(frozen=True)
class LockOrderEdge:
    """Thread ``thread`` acquired ``inner`` while holding ``outer``."""

    outer: str
    inner: str
    thread: str
    seq: int


@dataclass(frozen=True)
class PotentialDeadlock:
    """A cycle in the lock-order graph.

    ``locks`` lists the cycle's monitors in order; ``witnesses`` gives one
    edge per cycle step (which thread established that ordering).
    """

    locks: Tuple[str, ...]
    witnesses: Tuple[LockOrderEdge, ...]

    def __str__(self) -> str:
        ring = " -> ".join(self.locks + (self.locks[0],))
        threads = {w.thread for w in self.witnesses}
        return (
            f"potential deadlock: lock cycle {ring} established by threads "
            f"{sorted(threads)}"
        )


@register_detector("lockgraph")
class OnlineLockGraphDetector(OnlineDetector):
    """Streaming lock-order-graph construction.

    The graph grows monotonically as acquisitions nest; cycle
    enumeration is deferred to :meth:`finish` (cycles in the lock-order
    graph are *potential* hazards under some other schedule, so there is
    nothing to abort early for).
    """

    name = "lockgraph"

    def __init__(self) -> None:
        self.graph = nx.DiGraph()
        self.edges: List[LockOrderEdge] = []
        self._held: Dict[str, List[str]] = {}

    def reset(self) -> None:
        self.__init__()

    #: request events that establish ordering edges (monitor and
    #: first-class primitive acquisitions alike — a semaphore acquired
    #: while holding a monitor orders exactly like a nested lock).
    _REQUEST_KINDS = (
        EventKind.MONITOR_REQUEST,
        EventKind.SEM_REQUEST,
        EventKind.RW_REQUEST,
    )
    _GRANT_KINDS = (
        EventKind.MONITOR_ACQUIRE,
        EventKind.SEM_ACQUIRE,
        EventKind.RW_ACQUIRE,
        EventKind.RW_DOWNGRADE,
    )
    _RELEASE_KINDS = (
        EventKind.MONITOR_RELEASE,
        EventKind.SEM_RELEASE,
        EventKind.RW_RELEASE,
    )
    kinds = frozenset(
        _REQUEST_KINDS + _GRANT_KINDS + _RELEASE_KINDS + (EventKind.MONITOR_WAIT,)
    )

    def on_event(self, event: Event) -> None:
        stack = self._held.setdefault(event.thread, [])
        if event.kind in self._REQUEST_KINDS:
            # The ordering edge is established at *request* time: a thread
            # blocked on `inner` while holding `outer` is the hazard even
            # if the grant never happens (as in an actual deadlock run).
            monitor = event.monitor or "?"
            for outer in set(stack):
                if outer != monitor:
                    edge = LockOrderEdge(outer, monitor, event.thread, event.seq)
                    if not self.graph.has_edge(outer, monitor):
                        self.graph.add_edge(outer, monitor, witness=edge)
                    self.edges.append(edge)
        elif event.kind in self._GRANT_KINDS:
            monitor = event.monitor or "?"
            for _ in range(event.detail.get("count", 1)):
                stack.append(monitor)
        elif event.kind in self._RELEASE_KINDS:
            if event.monitor in stack:
                stack.reverse()
                stack.remove(event.monitor)
                stack.reverse()
        elif event.kind is EventKind.MONITOR_WAIT:
            self._held[event.thread] = [m for m in stack if m != event.monitor]

    def finish(self) -> List[PotentialDeadlock]:
        """All simple cycles of the graph as potential deadlocks.

        A cycle formed entirely by one thread's acquisitions is excluded:
        a single thread cannot deadlock with itself through reentrant
        locks.
        """
        results: List[PotentialDeadlock] = []
        for cycle in nx.simple_cycles(self.graph):
            witnesses = []
            ordered = list(cycle)
            for i, lock in enumerate(ordered):
                nxt = ordered[(i + 1) % len(ordered)]
                witnesses.append(self.graph.edges[lock, nxt]["witness"])
            threads = {w.thread for w in witnesses}
            if len(threads) < 2:
                continue
            results.append(
                PotentialDeadlock(locks=tuple(ordered), witnesses=tuple(witnesses))
            )
        return results


def build_lock_graph(trace: Trace) -> Tuple[nx.DiGraph, List[LockOrderEdge]]:
    """The lock-order graph of a trace: edge ``A -> B`` when some thread
    acquired ``B`` while holding ``A``.  Reentrant re-acquisitions of the
    same monitor do not add edges."""
    detector = OnlineLockGraphDetector()
    replay(trace, detector)
    return detector.graph, detector.edges


def detect_lock_cycles(trace: Trace) -> List[PotentialDeadlock]:
    """All simple cycles of the lock-order graph as potential deadlocks
    (replays the stored events through :class:`OnlineLockGraphDetector`)."""
    return replay(trace, OnlineLockGraphDetector()).finish()
