"""Reachability and behavioural analysis of Petri nets.

The paper uses the Petri net of Figure 1 to *reason* about thread states;
this module provides the mechanical counterpart: exhaustive reachability
exploration, detection of dead markings (system deadlocks), boundedness
checks, liveness of individual transitions, and firing-sequence search.
These analyses back the Figure-1 bench (`benchmarks/test_figure1_petrinet.py`)
and the Ext-D state-space-scaling study.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .errors import StateSpaceLimitError
from .net import Marking, PetriNet

__all__ = [
    "ReachabilityGraph",
    "build_reachability_graph",
    "find_firing_sequence",
    "CoverabilityResult",
    "check_boundedness",
]

DEFAULT_STATE_LIMIT = 200_000


@dataclass
class ReachabilityGraph:
    """The explicit state space of a net from an initial marking.

    Attributes:
        net: the analysed net.
        initial: initial marking (root of the graph).
        markings: all reachable markings.
        edges: ``(source_marking, transition_name, target_marking)`` triples.
        dead: reachable markings with no enabled transition.
    """

    net: PetriNet
    initial: Marking
    markings: List[Marking]
    edges: List[Tuple[Marking, str, Marking]]
    dead: List[Marking]

    _index: Dict[Marking, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._index = {m: i for i, m in enumerate(self.markings)}

    def __len__(self) -> int:
        return len(self.markings)

    def contains(self, marking: Marking) -> bool:
        return marking in self._index

    def successors(self, marking: Marking) -> List[Tuple[str, Marking]]:
        return [(t, m2) for (m1, t, m2) in self.edges if m1 == marking]

    def transitions_fired(self) -> Set[str]:
        """Names of transitions that fire somewhere in the state space.

        A transition absent from this set is *dead at the net level*: no
        reachable marking enables it (the structural analogue of the paper's
        "failure to fire" deviation).
        """
        return {t for (_, t, _) in self.edges}

    def dead_transitions(self) -> Set[str]:
        """Transitions never enabled in any reachable marking."""
        return {t.name for t in self.net.transitions} - self.transitions_fired()

    def max_tokens(self) -> Dict[str, int]:
        """Maximum observed token count per place across all markings."""
        maxima: Dict[str, int] = {p.name: 0 for p in self.net.places}
        for marking in self.markings:
            for place, count in marking:
                if count > maxima[place]:
                    maxima[place] = count
        return maxima

    def is_safe(self) -> bool:
        """True when every place holds at most one token in every reachable
        marking (a *1-bounded* or *safe* net; Figure 1 is safe)."""
        return all(v <= 1 for v in self.max_tokens().values())

    def strongly_connected(self) -> bool:
        """True when the whole state space is one strongly connected
        component — i.e. the system is *reversible*: every marking is
        reached from the initial marking and can return to it."""
        forward: Dict[Marking, List[Marking]] = {}
        backward: Dict[Marking, List[Marking]] = {}
        for source, _, target in self.edges:
            forward.setdefault(source, []).append(target)
            backward.setdefault(target, []).append(source)
        for adjacency in (forward, backward):
            seen = {self.initial}
            queue = deque(seen)
            while queue:
                for nxt in adjacency.get(queue.popleft(), ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            if len(seen) != len(self.markings):
                return False
        return True


def build_reachability_graph(
    net: PetriNet,
    initial: Marking,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> ReachabilityGraph:
    """Breadth-first exploration of all markings reachable from ``initial``.

    Raises :class:`StateSpaceLimitError` when more than ``state_limit``
    distinct markings are discovered — unbounded nets never terminate
    otherwise.
    """
    net.validate_marking(initial)
    seen: Dict[Marking, int] = {initial: 0}
    order: List[Marking] = [initial]
    edges: List[Tuple[Marking, str, Marking]] = []
    dead: List[Marking] = []
    queue: deque[Marking] = deque([initial])
    while queue:
        marking = queue.popleft()
        enabled = net.enabled_transitions(marking)
        if not enabled:
            dead.append(marking)
            continue
        for transition in enabled:
            successor = net.fire(transition, marking)
            if successor not in seen:
                if len(seen) >= state_limit:
                    raise StateSpaceLimitError(state_limit, len(seen))
                seen[successor] = len(order)
                order.append(successor)
                queue.append(successor)
            edges.append((marking, transition, successor))
    return ReachabilityGraph(net, initial, order, edges, dead)


def find_firing_sequence(
    net: PetriNet,
    initial: Marking,
    target: Marking,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> Optional[List[str]]:
    """Shortest firing sequence from ``initial`` to ``target`` via BFS, or
    ``None`` when the target is unreachable."""
    net.validate_marking(initial)
    if initial == target:
        return []
    parent: Dict[Marking, Tuple[Marking, str]] = {}
    seen: Set[Marking] = {initial}
    queue: deque[Marking] = deque([initial])
    while queue:
        marking = queue.popleft()
        for transition in net.enabled_transitions(marking):
            successor = net.fire(transition, marking)
            if successor in seen:
                continue
            if len(seen) >= state_limit:
                raise StateSpaceLimitError(state_limit, len(seen))
            seen.add(successor)
            parent[successor] = (marking, transition)
            if successor == target:
                path: List[str] = []
                current = successor
                while current != initial:
                    previous, fired = parent[current]
                    path.append(fired)
                    current = previous
                path.reverse()
                return path
            queue.append(successor)
    return None


@dataclass(frozen=True)
class CoverabilityResult:
    """Outcome of a boundedness check.

    Attributes:
        bounded: whether the net is bounded from the initial marking.
        bound: the smallest k such that the net is k-bounded (only when
            bounded).
        witness_place: a place with unbounded growth (only when unbounded).
    """

    bounded: bool
    bound: Optional[int] = None
    witness_place: Optional[str] = None


def check_boundedness(
    net: PetriNet,
    initial: Marking,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> CoverabilityResult:
    """Karp–Miller-style coverability check.

    Explores the state space while watching for a marking that strictly
    covers one of its ancestors (same or more tokens everywhere, strictly
    more somewhere) — the classic witness of unboundedness.  Falls back to
    the exhaustive bound when the state space is finite.
    """
    net.validate_marking(initial)
    place_names = [p.name for p in net.places]

    def as_vector(marking: Marking) -> Tuple[int, ...]:
        return tuple(marking.tokens(p) for p in place_names)

    # DFS with the ancestor chain available for the covering test.
    stack: List[Tuple[Marking, List[Tuple[int, ...]]]] = [(initial, [])]
    seen: Set[Marking] = {initial}
    max_per_place = list(as_vector(initial))
    while stack:
        marking, ancestors = stack.pop()
        vector = as_vector(marking)
        for i, value in enumerate(vector):
            if value > max_per_place[i]:
                max_per_place[i] = value
        for ancestor in ancestors:
            if all(v >= a for v, a in zip(vector, ancestor)) and any(
                v > a for v, a in zip(vector, ancestor)
            ):
                witness_index = next(
                    i for i, (v, a) in enumerate(zip(vector, ancestor)) if v > a
                )
                return CoverabilityResult(
                    bounded=False, witness_place=place_names[witness_index]
                )
        chain = ancestors + [vector]
        for transition in net.enabled_transitions(marking):
            successor = net.fire(transition, marking)
            if successor not in seen:
                if len(seen) >= state_limit:
                    raise StateSpaceLimitError(state_limit, len(seen))
                seen.add(successor)
                stack.append((successor, chain))
    return CoverabilityResult(bounded=True, bound=max(max_per_place))
