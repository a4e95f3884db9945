"""Core place/transition net structures.

The paper (Section 4) models the states of a single thread with respect to a
synchronized object as a Petri net: places hold markers (tokens), transitions
fire when every input place holds a marker, and firing moves markers along
the arcs.  This module implements the general engine that the concurrency
model of Figure 1 is built on: weighted place/transition nets with integer
markings, enabled-set computation, and firing semantics.

The structures are deliberately split in two layers:

* :class:`PetriNet` — the immutable *structure* (places, transitions, arcs).
* :class:`Marking` — an immutable token assignment, hashable so it can be a
  node in a reachability graph.

A mutable :class:`NetState` couples the two for simulation convenience.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    DuplicateNodeError,
    InvalidMarkingError,
    NotEnabledError,
    UnknownNodeError,
)

__all__ = ["Place", "Transition", "Arc", "Marking", "PetriNet", "NetState"]


@dataclass(frozen=True)
class Place:
    """A place (circle node) of a Petri net.

    Attributes:
        name: unique identifier within the net.
        label: human-readable description, e.g. ``"thread executing outside
            a synchronized block"`` for place ``A`` of the paper's Figure 1.
        capacity: optional upper bound on tokens; ``None`` means unbounded.
    """

    name: str
    label: str = ""
    capacity: Optional[int] = None

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity < 0:
            raise ValueError(f"place {self.name!r}: capacity must be >= 0")


@dataclass(frozen=True)
class Transition:
    """A transition (bar node) of a Petri net.

    Attributes:
        name: unique identifier within the net (e.g. ``"T1"``).
        label: human-readable description (e.g. ``"requesting an object lock"``).
    """

    name: str
    label: str = ""


@dataclass(frozen=True)
class Arc:
    """A weighted arc between a place and a transition (either direction).

    ``source`` and ``target`` are node names; exactly one of them must be a
    place and the other a transition.  ``weight`` is the number of tokens
    consumed/produced when the transition fires (1 in all of the paper's
    models, but the engine supports general weights).
    """

    source: str
    target: str
    weight: int = 1

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"arc {self.source}->{self.target}: weight must be >= 1")


class Marking:
    """An immutable, hashable token assignment over the places of a net.

    Only places with a nonzero token count are stored; equality and hashing
    are therefore independent of how the marking was constructed.
    """

    __slots__ = ("_tokens", "_hash")

    def __init__(self, tokens: Mapping[str, int] | Iterable[Tuple[str, int]] = ()):
        items = dict(tokens)
        for place, count in items.items():
            if count < 0:
                raise InvalidMarkingError(
                    f"place {place!r} has negative token count {count}"
                )
        self._tokens: Tuple[Tuple[str, int], ...] = tuple(
            sorted((p, c) for p, c in items.items() if c > 0)
        )
        self._hash = hash(self._tokens)

    def tokens(self, place: str) -> int:
        """Number of tokens currently in ``place`` (0 if absent)."""
        for p, c in self._tokens:
            if p == place:
                return c
        return 0

    def as_dict(self) -> Dict[str, int]:
        """The marking as a plain ``{place: count}`` dict (nonzero only)."""
        return dict(self._tokens)

    def places_marked(self) -> Tuple[str, ...]:
        """Names of places holding at least one token, sorted."""
        return tuple(p for p, _ in self._tokens)

    def total(self) -> int:
        """Total token count across all places."""
        return sum(c for _, c in self._tokens)

    def add(self, deltas: Mapping[str, int]) -> "Marking":
        """Return a new marking with ``deltas`` applied (may be negative)."""
        merged = dict(self._tokens)
        for place, delta in deltas.items():
            merged[place] = merged.get(place, 0) + delta
        return Marking(merged)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Marking) and self._tokens == other._tokens

    def __hash__(self) -> int:
        return self._hash

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(self._tokens)

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}:{c}" for p, c in self._tokens)
        return f"Marking({{{inner}}})"


class PetriNet:
    """An immutable place/transition net.

    Build a net with :meth:`builder` (see :class:`NetBuilder`) or by passing
    complete sequences of places, transitions, and arcs.  The constructor
    validates referential integrity: every arc endpoint must name an existing
    node, and arcs must connect a place to a transition or vice versa.
    """

    def __init__(
        self,
        name: str,
        places: Sequence[Place],
        transitions: Sequence[Transition],
        arcs: Sequence[Arc],
    ) -> None:
        self.name = name
        self._places: Dict[str, Place] = {}
        self._transitions: Dict[str, Transition] = {}
        for place in places:
            if place.name in self._places or place.name in self._transitions:
                raise DuplicateNodeError(f"duplicate node name {place.name!r}")
            self._places[place.name] = place
        for transition in transitions:
            if transition.name in self._places or transition.name in self._transitions:
                raise DuplicateNodeError(f"duplicate node name {transition.name!r}")
            self._transitions[transition.name] = transition

        # inputs[t] / outputs[t]: {place: weight}
        self._inputs: Dict[str, Dict[str, int]] = {t: {} for t in self._transitions}
        self._outputs: Dict[str, Dict[str, int]] = {t: {} for t in self._transitions}
        self._arcs: Tuple[Arc, ...] = tuple(arcs)
        for arc in self._arcs:
            src_is_place = arc.source in self._places
            tgt_is_place = arc.target in self._places
            src_is_trans = arc.source in self._transitions
            tgt_is_trans = arc.target in self._transitions
            if not (src_is_place or src_is_trans):
                raise UnknownNodeError(f"arc source {arc.source!r} is not in the net")
            if not (tgt_is_place or tgt_is_trans):
                raise UnknownNodeError(f"arc target {arc.target!r} is not in the net")
            if src_is_place and tgt_is_trans:
                self._inputs[arc.target][arc.source] = (
                    self._inputs[arc.target].get(arc.source, 0) + arc.weight
                )
            elif src_is_trans and tgt_is_place:
                self._outputs[arc.source][arc.target] = (
                    self._outputs[arc.source].get(arc.target, 0) + arc.weight
                )
            else:
                raise UnknownNodeError(
                    f"arc {arc.source}->{arc.target} must connect a place and a "
                    f"transition"
                )

    # -- structure accessors -------------------------------------------------

    @property
    def places(self) -> Tuple[Place, ...]:
        return tuple(self._places.values())

    @property
    def transitions(self) -> Tuple[Transition, ...]:
        return tuple(self._transitions.values())

    @property
    def arcs(self) -> Tuple[Arc, ...]:
        return self._arcs

    def place(self, name: str) -> Place:
        try:
            return self._places[name]
        except KeyError:
            raise UnknownNodeError(f"no place named {name!r}") from None

    def transition(self, name: str) -> Transition:
        try:
            return self._transitions[name]
        except KeyError:
            raise UnknownNodeError(f"no transition named {name!r}") from None

    def has_place(self, name: str) -> bool:
        return name in self._places

    def has_transition(self, name: str) -> bool:
        return name in self._transitions

    def preset(self, transition: str) -> Dict[str, int]:
        """Input places of ``transition`` with their arc weights."""
        self.transition(transition)
        return dict(self._inputs[transition])

    def postset(self, transition: str) -> Dict[str, int]:
        """Output places of ``transition`` with their arc weights."""
        self.transition(transition)
        return dict(self._outputs[transition])

    # -- semantics ------------------------------------------------------------

    def validate_marking(self, marking: Marking) -> None:
        """Raise :class:`InvalidMarkingError` if the marking names unknown
        places or violates place capacities."""
        for place, count in marking:
            if place not in self._places:
                raise InvalidMarkingError(f"marking names unknown place {place!r}")
            cap = self._places[place].capacity
            if cap is not None and count > cap:
                raise InvalidMarkingError(
                    f"place {place!r} holds {count} tokens, capacity is {cap}"
                )

    def is_enabled(self, transition: str, marking: Marking) -> bool:
        """True when every input place holds at least the arc-weight tokens
        and firing would not violate any output-place capacity."""
        for place, weight in self._inputs[transition].items():
            if marking.tokens(place) < weight:
                return False
        for place, weight in self._outputs[transition].items():
            cap = self._places[place].capacity
            if cap is not None:
                after = (
                    marking.tokens(place)
                    - self._inputs[transition].get(place, 0)
                    + weight
                )
                if after > cap:
                    return False
        return True

    def enabled_transitions(self, marking: Marking) -> List[str]:
        """Names of all transitions enabled in ``marking``, in declaration order."""
        return [t for t in self._transitions if self.is_enabled(t, marking)]

    def fire(self, transition: str, marking: Marking) -> Marking:
        """Fire ``transition`` from ``marking`` and return the successor.

        Raises :class:`NotEnabledError` if the transition is not enabled.
        """
        self.transition(transition)
        if not self.is_enabled(transition, marking):
            raise NotEnabledError(
                f"transition {transition!r} is not enabled in {marking!r}"
            )
        deltas: Dict[str, int] = {}
        for place, weight in self._inputs[transition].items():
            deltas[place] = deltas.get(place, 0) - weight
        for place, weight in self._outputs[transition].items():
            deltas[place] = deltas.get(place, 0) + weight
        return marking.add(deltas)

    def fire_sequence(self, transitions: Iterable[str], marking: Marking) -> Marking:
        """Fire a sequence of transitions, returning the final marking."""
        current = marking
        for transition in transitions:
            current = self.fire(transition, current)
        return current

    def is_dead(self, marking: Marking) -> bool:
        """True when no transition is enabled (a *dead* marking; for the
        concurrency model this corresponds to system-wide deadlock)."""
        return not self.enabled_transitions(marking)

    # -- linear algebra -------------------------------------------------------

    def incidence_matrix(self) -> Tuple[List[List[int]], List[str], List[str]]:
        """The incidence matrix ``C`` with ``C[i][j] = post(t_j, p_i) -
        pre(t_j, p_i)``, as a list of integer rows.

        Returns ``(C, place_names, transition_names)`` where rows of ``C``
        follow ``place_names`` and columns follow ``transition_names``.
        Place invariants are integer vectors ``y`` with ``y.T @ C == 0``.
        """
        place_names = list(self._places)
        transition_names = list(self._transitions)
        p_index = {p: i for i, p in enumerate(place_names)}
        matrix = [[0] * len(transition_names) for _ in place_names]
        for j, transition in enumerate(transition_names):
            for place, weight in self._inputs[transition].items():
                matrix[p_index[place]][j] -= weight
            for place, weight in self._outputs[transition].items():
                matrix[p_index[place]][j] += weight
        return matrix, place_names, transition_names

    def __repr__(self) -> str:
        return (
            f"PetriNet({self.name!r}, places={len(self._places)}, "
            f"transitions={len(self._transitions)}, arcs={len(self._arcs)})"
        )


@dataclass
class NetState:
    """A mutable (net, marking) pair for step-by-step simulation."""

    net: PetriNet
    marking: Marking
    history: List[str] = field(default_factory=list)

    def enabled(self) -> List[str]:
        return self.net.enabled_transitions(self.marking)

    def fire(self, transition: str) -> "NetState":
        self.marking = self.net.fire(transition, self.marking)
        self.history.append(transition)
        return self

    def is_dead(self) -> bool:
        return self.net.is_dead(self.marking)
