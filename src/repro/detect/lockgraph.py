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
from typing import Dict, Iterable, Iterator, List, Tuple

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
    "simple_cycles",
]

# Event kinds bound to module names: function bodies read these, never
# ``EventKind.X`` (a Python-level enum class lookup before 3.12).
_MONITOR_WAIT = EventKind.MONITOR_WAIT

#: request events that establish ordering edges (monitor and first-class
#: primitive acquisitions alike — a semaphore acquired while holding a
#: monitor orders exactly like a nested lock).
_REQUEST_KINDS = frozenset(
    {EventKind.MONITOR_REQUEST, EventKind.SEM_REQUEST, EventKind.RW_REQUEST}
)
_GRANT_KINDS = frozenset(
    {
        EventKind.MONITOR_ACQUIRE,
        EventKind.SEM_ACQUIRE,
        EventKind.RW_ACQUIRE,
        EventKind.RW_DOWNGRADE,
    }
)
_RELEASE_KINDS = frozenset(
    {EventKind.MONITOR_RELEASE, EventKind.SEM_RELEASE, EventKind.RW_RELEASE}
)


@dataclass(frozen=True)
class LockOrderEdge:
    """Thread ``thread`` acquired ``inner`` while holding ``outer``."""

    outer: str
    inner: str
    thread: str
    seq: int


#: ``(outer, inner) -> first witness``, in the order first seen
LockGraph = Dict[Tuple[str, str], LockOrderEdge]


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


def simple_cycles(edges: Iterable[Tuple[str, str]]) -> Iterator[Tuple[str, ...]]:
    """Every simple cycle of the digraph with edge pairs ``edges``, once,
    self-loops aside: each starts at its least node, and a root's depth
    first search (along edges in the order given) enters only nodes above
    it.  The order never depends on the string hash seed.
    """
    successors: Dict[str, List[str]] = {}
    for outer, inner in edges:
        if outer != inner:
            successors.setdefault(outer, []).append(inner)
            successors.setdefault(inner, [])

    def extend(path: List[str]) -> Iterator[Tuple[str, ...]]:
        for node in successors[path[-1]]:
            if node == path[0]:
                yield tuple(path)
            elif node > path[0] and node not in path:
                yield from extend(path + [node])

    for root in sorted(successors):
        yield from extend([root])


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
        self.graph: LockGraph = {}
        self.edges: List[LockOrderEdge] = []
        self._held: Dict[str, List[str]] = {}

    def reset(self) -> None:
        self.graph.clear()
        self.edges.clear()
        self._held.clear()

    kinds = (
        _REQUEST_KINDS | _GRANT_KINDS | _RELEASE_KINDS | {EventKind.MONITOR_WAIT}
    )

    def fold(self, events: Iterable[Event]) -> None:
        kinds = self.kinds
        graph = self.graph
        edges = self.edges
        held = self._held
        for event in events:
            kind = event.kind
            if kind not in kinds:
                continue
            thread = event.thread
            monitor = event.monitor
            if kind in _REQUEST_KINDS:
                # The ordering edge is established at *request* time: a
                # thread blocked on `inner` while holding `outer` is the
                # hazard even if the grant never happens (as in an actual
                # deadlock run).
                stack = held.get(thread)
                if stack:
                    monitor = monitor or "?"
                    for outer in set(stack):
                        if outer != monitor:
                            edge = LockOrderEdge(outer, monitor, thread, event.seq)
                            graph.setdefault((outer, monitor), edge)
                            edges.append(edge)
            elif kind in _GRANT_KINDS:
                stack = held.get(thread)
                if stack is None:
                    stack = held[thread] = []
                monitor = monitor or "?"
                for _ in range(event.detail.get("count", 1)):
                    stack.append(monitor)
            elif kind in _RELEASE_KINDS:
                stack = held.get(thread)
                if stack and monitor in stack:
                    stack.reverse()
                    stack.remove(monitor)
                    stack.reverse()
            elif kind is _MONITOR_WAIT:
                held[thread] = [m for m in held.get(thread, ()) if m != monitor]

    def finish(self) -> List[PotentialDeadlock]:
        """All simple cycles of the graph as potential deadlocks.

        A cycle formed entirely by one thread's acquisitions is excluded:
        a single thread cannot deadlock with itself through reentrant
        locks.  Self-edges are never added, so a graph with fewer than
        two edges has no cycle and skips the enumeration.
        """
        results: List[PotentialDeadlock] = []
        if len(self.graph) < 2:
            return results
        for cycle in simple_cycles(self.graph):
            witnesses = tuple(
                self.graph[lock, cycle[(i + 1) % len(cycle)]]
                for i, lock in enumerate(cycle)
            )
            if len({w.thread for w in witnesses}) < 2:
                continue
            results.append(PotentialDeadlock(locks=cycle, witnesses=witnesses))
        return results


def build_lock_graph(trace: Trace) -> Tuple[LockGraph, List[LockOrderEdge]]:
    """The lock-order graph of a trace: edge ``A -> B`` when some thread
    acquired ``B`` while holding ``A``, mapped to its first witness.
    Reentrant re-acquisitions of the same monitor do not add edges."""
    detector = OnlineLockGraphDetector()
    replay(trace, detector)
    return detector.graph, detector.edges


def detect_lock_cycles(trace: Trace) -> List[PotentialDeadlock]:
    """All simple cycles of the lock-order graph as potential deadlocks
    (replays the stored events through :class:`OnlineLockGraphDetector`)."""
    return replay(trace, OnlineLockGraphDetector()).finish()
