"""Probabilistic Concurrency Testing (PCT) scheduler.

Randomized scheduling with a *guarantee*: for a program with ``n``
threads and ``k`` scheduling steps, a bug of depth ``d`` (one that
requires ``d`` ordering constraints to manifest) is found with
probability at least ``1/(n * k^(d-1))`` per run — usually far better
than uniform random for deep bugs (Burckhardt, Kothari, Musuvathi,
Nagarakatte: "A Randomized Scheduler with Probabilistic Guarantees of
Finding Bugs", ASPLOS 2010).

The algorithm: give every thread a distinct random priority; always run
the highest-priority runnable thread; at ``d-1`` step indices chosen
uniformly in advance, demote the currently running thread below every
other priority (a "priority change point").

This complements the reproduction's uniform :class:`RandomScheduler`
(Stoller-style) and the systematic explorer: the Ext-B bench compares all
three on the seeded bugs.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from .scheduler import Scheduler

__all__ = ["PCTScheduler"]


class PCTScheduler(Scheduler):
    """PCT with bug depth ``d`` and an expected step budget ``k``.

    Args:
        seed: RNG seed (each distinct seed is one PCT trial).
        depth: target bug depth ``d`` (number of ordering constraints);
            ``d=1`` degenerates to fixed random priorities.
        expected_steps: the ``k`` used to draw change points; runs longer
            than ``k`` simply see no further demotions.
    """

    def __init__(
        self, seed: Optional[int] = None, depth: int = 3, expected_steps: int = 200
    ) -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if expected_steps < 1:
            raise ValueError("expected_steps must be >= 1")
        self.seed = seed
        self.depth = depth
        self.expected_steps = expected_steps
        self._priorities: Dict[str, float] = {}
        self._change_points: List[int] = []
        self._step = 0
        self._floor = 0.0  # priorities assigned by demotion go below this
        self.reset()

    def reset(self) -> None:
        self._rng = random.Random(self.seed)
        self._priorities = {}
        self._step = 0
        self._floor = 0.0
        self._change_points = sorted(
            self._rng.randrange(self.expected_steps)
            for _ in range(self.depth - 1)
        )

    def _priority(self, thread: str) -> float:
        if thread not in self._priorities:
            # fresh threads get a random high (positive) priority
            self._priorities[thread] = self._rng.random() + 1.0
        return self._priorities[thread]

    def pick(self, kind: str, options: Sequence[str]) -> int:
        best_index = max(
            range(len(options)), key=lambda i: self._priority(options[i])
        )
        chosen = options[best_index]
        # consume change points scheduled at (or before) this step
        while self._change_points and self._change_points[0] <= self._step:
            self._change_points.pop(0)
            self._floor -= 1.0
            self._priorities[chosen] = self._floor  # demote below everyone
        self._step += 1
        return best_index


# -- registry hookup --------------------------------------------------------

from repro.run.registry import register_scheduler  # noqa: E402


@register_scheduler("pct")
def _build_pct(
    seed=None, *, pct_depth: int = 3, pct_expected_steps: int = 200, **_params
) -> Scheduler:
    return PCTScheduler(seed, depth=pct_depth, expected_steps=pct_expected_steps)
