"""Coverage matrices: arc coverage across many runs / test sequences.

Used by the exploration-cost study (Ext-B): rows are runs (e.g. one per
random-schedule seed or one per generated test sequence), columns are CoFG
arcs, entries are hit counts.  The matrix answers questions like "how many
random schedules until every arc is covered?" and "which arcs are rare?".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.model import CoFG

from .tracker import CoverageTracker

__all__ = ["CoverageMatrix"]


@dataclass
class CoverageMatrix:
    """Hit counts of every arc for every run.

    Build incrementally with :meth:`add_run`; arcs are fixed at
    construction from the supplied CoFGs.  Rows are lists of ints, one
    per run, in ``arc_keys`` order.
    """

    cofgs: Dict[str, CoFG]
    arc_keys: List[Tuple[str, str, str]] = field(default_factory=list)
    rows: List[List[int]] = field(default_factory=list)
    labels: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.arc_keys:
            for method, cofg in self.cofgs.items():
                for arc in cofg.arcs:
                    self.arc_keys.append((method, arc.src.name, arc.dst.name))
        # the union of covered arc indices, kept by every append so the
        # live coverage read never rebuilds the curve
        self._covered: Set[int] = set()
        for row in self.rows:
            self._cover(row)

    def _cover(self, row: List[int]) -> None:
        self._covered.update(i for i, hits in enumerate(row) if hits)

    def add_run(self, tracker: CoverageTracker, label: str = "") -> None:
        """Append one run's hit counts (from a fed tracker)."""
        counts = {
            (method, src, dst): hits
            for method, coverage in tracker.methods.items()
            for (src, dst), hits in coverage.hits.items()
        }
        self.add_counts(counts, label)

    def add_counts(
        self,
        counts: Dict[Tuple[str, str, str], int],
        label: str = "",
    ) -> None:
        """Append one run's hit counts from a plain ``(method, src, dst)
        -> count`` mapping — the serializable form a campaign worker
        streams back, so matrices merge across process boundaries without
        shipping trackers or traces."""
        self.rows.append([counts.get(key, 0) for key in self.arc_keys])
        self.labels.append(label or f"run{len(self.rows)}")
        self._cover(self.rows[-1])

    def merge(self, other: "CoverageMatrix") -> None:
        """Append every row of ``other`` (built over the same CoFGs) —
        the incremental-merge primitive for sharded campaigns."""
        if other.arc_keys != self.arc_keys:
            raise ValueError(
                "cannot merge coverage matrices with different arc sets "
                f"({len(self.arc_keys)} vs {len(other.arc_keys)} arcs)"
            )
        self.rows.extend(other.rows)
        self.labels.extend(other.labels)
        self._covered |= other._covered

    # -- queries -------------------------------------------------------------

    def as_array(self) -> List[List[int]]:
        """(runs x arcs) hit counts: a copy of every row."""
        return [row[:] for row in self.rows]

    def cumulative_coverage(self) -> List[float]:
        """Fraction of arcs covered by the union of the first k runs,
        for k = 1..n (the saturation curve of the exploration study)."""
        if not self.arc_keys:
            return []
        covered: Set[int] = set()
        curve = []
        for row in self.rows:
            covered.update(i for i, hits in enumerate(row) if hits)
            curve.append(len(covered) / len(self.arc_keys))
        return curve

    def coverage_fraction(self) -> float:
        """Fraction of arcs covered by the union of *all* runs so far
        (the live number a campaign's progress line reports)."""
        return len(self._covered) / len(self.arc_keys) if self.arc_keys else 0.0

    def runs_to_full_coverage(self) -> Optional[int]:
        """Smallest k with full union coverage after k runs, or None."""
        curve = self.cumulative_coverage()
        return next((k for k, frac in enumerate(curve, 1) if frac >= 1.0), None)

    def arc_hit_rates(self) -> List[float]:
        """Per-arc fraction of runs that covered the arc (rarity measure)."""
        if not self.rows:
            return [0.0] * len(self.arc_keys)
        return [
            sum(1 for hits in column if hits) / len(self.rows)
            for column in zip(*self.rows)
        ]

    def rarest_arcs(self, k: int = 3) -> List[Tuple[Tuple[str, str, str], float]]:
        """The k arcs covered by the fewest runs, with their hit rates
        (ties in arc order)."""
        rates = self.arc_hit_rates()
        order = sorted(range(len(rates)), key=rates.__getitem__)[:k]
        return [(self.arc_keys[i], rates[i]) for i in order]
