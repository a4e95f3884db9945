"""The primitive-agnostic wait-queue core.

Every blocking synchronization primitive in the VM — monitors, counting
semaphores, rw-locks, cyclic barriers — keeps the threads it has
suspended in a :class:`WaitQueue`: an arrival-ordered queue whose
*selection* (which thread proceeds next) is delegated to a pluggable
:class:`~repro.vm.monitor.SelectionPolicy`.  Monitors own two of them
(the entry set and the wait set); a semaphore owns one acquire queue; a
rw-lock owns a read queue and a write queue; a barrier owns its party
queue.  Factoring the queue out of :class:`~repro.vm.monitor.MonitorObject`
is what makes the paper's fairness discussion (Sections 5.2.1 and 5.5.1)
apply uniformly: the same unfair policy that starves a monitor acquirer
starves a semaphore acquirer.

The class deliberately mirrors the ``List[str]`` it replaced — iteration,
indexing, membership, truthiness, and equality against plain lists all
behave identically — so detectors, fault injectors, and exploration
hashing that read ``monitor.wait_set`` directly are unaffected.

The module also hosts :func:`find_cycle`, the wait-for-graph cycle search
shared by the kernel's quiescence diagnosis and the online waitgraph
detector.  With monitors alone the graph is functional (every blocked
thread waits on exactly one owner) and the search degenerates to the
classic chain walk; semaphores make it a true multigraph (an acquirer
waits on *every* permit holder), so the search is a DFS that returns the
first cycle reachable from the given starts — for single-successor
graphs, exactly the chain walk's answer.
"""

from __future__ import annotations

import random
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .monitor import SelectionPolicy, select_index

__all__ = ["WaitQueue", "find_cycle"]


class WaitQueue:
    """An arrival-ordered queue of suspended thread names with
    policy-driven selection.

    Threads are appended in arrival order; :meth:`pop_select` removes and
    returns the thread a :class:`SelectionPolicy` chooses, and
    :meth:`peek_select` previews that choice without removing it (used by
    grant loops that must stop when the chosen candidate cannot proceed,
    e.g. a semaphore acquirer needing more permits than are available).
    """

    __slots__ = ("_items",)

    def __init__(self, items: Optional[Iterable[str]] = None) -> None:
        self._items: List[str] = list(items or ())

    # -- queue discipline ------------------------------------------------

    def add(self, thread: str) -> int:
        """Enqueue ``thread`` at the arrival end; returns the new length."""
        items = self._items
        items.append(thread)
        return len(items)

    def remove(self, thread: str) -> None:
        """Remove the first queued occurrence of ``thread``."""
        self._items.remove(thread)

    def peek_select(
        self, policy: SelectionPolicy, rng: Optional[random.Random]
    ) -> str:
        """The thread ``policy`` would choose, without removing it."""
        return self._items[select_index(policy, len(self._items), rng)]

    def pop_select(
        self, policy: SelectionPolicy, rng: Optional[random.Random]
    ) -> str:
        """Remove and return the thread chosen by ``policy``."""
        return self._items.pop(select_index(policy, len(self._items), rng))

    # -- list-compatible reads -------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self) -> Iterator[str]:
        return iter(self._items)

    def __contains__(self, thread: object) -> bool:
        return thread in self._items

    def __getitem__(self, index: int) -> str:
        return self._items[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WaitQueue):
            return self._items == other._items
        if isinstance(other, (list, tuple)):
            return self._items == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"WaitQueue({self._items!r})"

    def snapshot(self) -> Tuple[str, ...]:
        """Immutable view for diagnostics and exploration hashing."""
        return tuple(self._items)


def find_cycle(
    edges: Mapping[str, Sequence[str]],
    starts: Optional[Iterable[str]] = None,
) -> List[str]:
    """First cycle in a wait-for graph, in cycle order ([] when acyclic).

    ``edges`` maps a blocked thread to the threads it waits for.  For
    monitor-only graphs each value is a single-element sequence and the
    DFS reduces to the chain walk the kernel has always used, returning
    byte-identical cycles; semaphore edges fan out to every permit
    holder, which is why a real DFS is needed.  ``starts`` fixes the
    exploration order (the kernel passes thread-insertion order, the
    waitgraph detector passes sorted order — both preserved from their
    pre-refactor implementations).
    """
    for start in starts if starts is not None else edges:
        if start not in edges:
            continue
        path: List[str] = [start]
        index: Dict[str, int] = {start: 0}
        dead: Set[str] = set()
        stack: List[Iterator[str]] = [iter(edges[start])]
        while stack:
            advanced = False
            for succ in stack[-1]:
                if succ in index:
                    return path[index[succ]:]
                if succ in dead or succ not in edges:
                    continue
                index[succ] = len(path)
                path.append(succ)
                stack.append(iter(edges[succ]))
                advanced = True
                break
            if not advanced:
                stack.pop()
                node = path.pop()
                del index[node]
                dead.add(node)
    return []
