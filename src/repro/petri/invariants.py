"""Place-invariant computation via the incidence matrix.

A place invariant (P-invariant) is an integer weighting ``y`` of the places
with ``y.T @ C == 0`` for incidence matrix ``C``: the weighted token sum is
conserved by every firing.  For the paper's Figure-1 model the invariant
``A + B + C + D == 1`` expresses "the thread is in exactly one state" and
``C + E == 1`` expresses "either the lock is free or exactly one thread is
in the critical section" — the mutual-exclusion property itself.

The kernel of an integer matrix is computed with exact Gaussian
elimination over Fractions, so invariants are exact integer vectors,
never floating-point approximations.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Dict, List, Tuple

from .net import Marking, PetriNet

__all__ = ["PlaceInvariant", "place_invariants", "invariant_holds", "conserved_sum"]


@dataclass(frozen=True)
class PlaceInvariant:
    """An integer place weighting conserved by all transition firings."""

    weights: Tuple[Tuple[str, int], ...]  # (place, weight), nonzero only

    def as_dict(self) -> Dict[str, int]:
        return dict(self.weights)

    def value(self, marking: Marking) -> int:
        """The conserved weighted token sum under ``marking``."""
        return sum(w * marking.tokens(p) for p, w in self.weights)

    def __str__(self) -> str:
        terms = []
        for place, weight in self.weights:
            if weight == 1:
                terms.append(place)
            else:
                terms.append(f"{weight}*{place}")
        return " + ".join(terms) if terms else "0"


def _integer_kernel(matrix: List[List[int]]) -> List[List[int]]:
    """Basis of the integer (rational) left-null space of ``matrix``.

    Performs exact elimination over Fractions on the columns of
    ``matrix``; each basis vector is scaled to coprime integers with a
    positive leading entry.
    """
    from fractions import Fraction

    # We want y with y^T C = 0  <=>  C^T y = 0, i.e. kernel of C^T.
    a = [[Fraction(v) for v in column] for column in zip(*matrix)]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivot_cols: List[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pivot_value = a[r][c]
        a[r] = [v / pivot_value for v in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                factor = a[i][c]
                a[i] = [vi - factor * vr for vi, vr in zip(a[i], a[r])]
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    basis: List[List[int]] = []
    for free in free_cols:
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for row_index, pivot_col in enumerate(pivot_cols):
            vec[pivot_col] = -a[row_index][free]
        scale = lcm(*(f.denominator for f in vec))
        ints = [int(f * scale) for f in vec]
        g = gcd(*ints)  # vec[free] == 1, so never 0
        if next(v for v in ints if v) < 0:
            g = -g
        basis.append([v // g for v in ints])
    return basis


def place_invariants(net: PetriNet) -> List[PlaceInvariant]:
    """All basis place invariants of ``net`` (may include negative weights
    for nets whose kernel has no all-nonnegative basis)."""
    matrix, place_names, _ = net.incidence_matrix()
    return [
        PlaceInvariant(tuple((p, w) for p, w in zip(place_names, vector) if w))
        for vector in _integer_kernel(matrix)
    ]


def invariant_holds(
    invariant: PlaceInvariant, net: PetriNet, markings: List[Marking]
) -> bool:
    """True when the invariant's weighted sum is identical across all
    ``markings`` (e.g. all markings of a reachability graph)."""
    if not markings:
        return True
    expected = invariant.value(markings[0])
    return all(invariant.value(m) == expected for m in markings)


def conserved_sum(invariant: PlaceInvariant, initial: Marking) -> int:
    """The constant value the invariant takes from ``initial`` onwards."""
    return invariant.value(initial)
