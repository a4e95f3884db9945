"""Schedulers: the kernel's source of nondeterministic decisions.

Every thread-interleaving choice is funnelled through one call,
``Scheduler.pick("run", names)``: which runnable thread executes next.
(Lock grants and notify wake-ups follow the monitor's
:class:`~repro.vm.monitor.SelectionPolicy` instead.)  This single funnel
is what makes systematic schedule exploration possible: the kernel
records every pick (``Kernel.choice_log``), and the explorer
(``repro.testing.explorer``) replays a decision prefix with
:class:`ReplayScheduler` and branches on that record.
:class:`RecordingScheduler` is the reference the record is tested
against.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = [
    "Decision",
    "Scheduler",
    "FifoScheduler",
    "RoundRobinScheduler",
    "RandomScheduler",
    "ReplayScheduler",
    "NameReplayScheduler",
    "RecordingScheduler",
    "ChoiceExhaustedError",
]


@dataclass(frozen=True, slots=True)
class Decision:
    """A recorded scheduling decision: at a point with ``options``
    candidates of ``kind``, index ``chosen`` was taken."""

    kind: str
    options: Tuple[str, ...]
    chosen: int


# RecordingScheduler.pick records one Decision per scheduling step and
# fills its slots directly: the generated frozen __init__ would pay one
# object.__setattr__ call per field.
_new_object = object.__new__
_set_kind = Decision.kind.__set__
_set_options = Decision.options.__set__
_set_chosen = Decision.chosen.__set__


class ChoiceExhaustedError(Exception):
    """A ReplayScheduler ran past its recorded decision list."""


class Scheduler(ABC):
    """Base class for all schedulers."""

    @abstractmethod
    def pick(self, kind: str, options: Sequence[str]) -> int:
        """Return the index of the chosen candidate in ``options``.

        ``options`` is never empty; candidates are thread names.
        """

    def reset(self) -> None:
        """Called by the kernel before a run begins (stateful schedulers
        re-initialise their queues here)."""


class FifoScheduler(Scheduler):
    """Always pick the first candidate: deterministic, runs each thread as
    far as it can go before another gets a turn (candidates are presented
    in ready order)."""

    def pick(self, kind: str, options: Sequence[str]) -> int:
        return 0


class RoundRobinScheduler(Scheduler):
    """Rotate through threads: after running thread ``x``, prefer the next
    distinct thread in name order, giving maximal interleaving at every
    scheduling point."""

    def __init__(self) -> None:
        self._last: Optional[str] = None

    def reset(self) -> None:
        self._last = None

    def pick(self, kind: str, options: Sequence[str]) -> int:
        if len(options) == 1:
            return 0
        ordered = sorted(range(len(options)), key=lambda i: options[i])
        if self._last is None:
            chosen = ordered[0]
        else:
            names = [options[i] for i in ordered]
            chosen = ordered[0]
            for position, name in enumerate(names):
                if name > self._last:
                    chosen = ordered[position]
                    break
        self._last = options[chosen]
        return chosen


class RandomScheduler(Scheduler):
    """Uniform random choice with a seed — the reproducible stand-in for
    JVM nondeterminism (Stoller-style randomized scheduling)."""

    def __init__(self, seed: Optional[int] = None) -> None:
        self.seed = seed
        #: the bit source of a ``random.Random(seed)``, seeded on the
        #: first pick after construction or reset (the same draws as
        #: seeding eagerly: nothing draws in between), so a run, which
        #: resets its scheduler first, seeds it once
        self._getrandbits: Optional[Callable[[int], int]] = None

    def reset(self) -> None:
        self._getrandbits = None

    def pick(self, kind: str, options: Sequence[str]) -> int:
        """``random.Random(seed).randrange(len(options))``, one call per
        pick: the draws ``randrange`` makes through
        ``Random._randbelow_with_getrandbits`` (the same on 3.10-3.13),
        minus its argument checks and two Python calls."""
        getrandbits = self._getrandbits
        if getrandbits is None:
            getrandbits = self._getrandbits = random.Random(self.seed).getrandbits
        n = len(options)
        if not n:
            raise ValueError("empty range for randrange()")
        bits = n.bit_length()
        drawn = getrandbits(bits)
        while drawn >= n:
            drawn = getrandbits(bits)
        return drawn


class ReplayScheduler(Scheduler):
    """Replay a recorded decision sequence, then fall back to a base
    scheduler (FIFO by default).

    ``strict=True`` raises :class:`ChoiceExhaustedError` when the recording
    runs out instead of falling back — the explorer uses this to detect the
    frontier of an execution prefix.
    """

    def __init__(
        self,
        decisions: Sequence[int],
        fallback: Optional[Scheduler] = None,
        strict: bool = False,
    ) -> None:
        self.decisions = list(decisions)
        self.fallback = fallback or FifoScheduler()
        self.strict = strict
        self._cursor = 0

    def reset(self) -> None:
        self._cursor = 0
        self.fallback.reset()

    def pick(self, kind: str, options: Sequence[str]) -> int:
        if self._cursor < len(self.decisions):
            index = self.decisions[self._cursor]
            self._cursor += 1
            if not 0 <= index < len(options):
                raise ChoiceExhaustedError(
                    f"recorded decision {index} out of range for {len(options)} "
                    f"options at step {self._cursor - 1}"
                )
            return index
        if self.strict:
            raise ChoiceExhaustedError(
                f"decision list exhausted after {len(self.decisions)} choices"
            )
        return self.fallback.pick(kind, options)


class NameReplayScheduler(Scheduler):
    """Replay a schedule recorded as *thread names* (the kernel's derived
    ``schedule_log``, as embedded in saved traces by
    :mod:`repro.vm.serialize`).

    At each decision the next recorded name is looked up among the
    candidates; when the name is absent (program changed) or the log runs
    out, falls back to FIFO (or raises when ``strict``)."""

    def __init__(self, names: Sequence[str], strict: bool = False) -> None:
        self.names = list(names)
        self.strict = strict
        self._cursor = 0

    def reset(self) -> None:
        self._cursor = 0

    def pick(self, kind: str, options: Sequence[str]) -> int:
        if self._cursor < len(self.names):
            wanted = self.names[self._cursor]
            self._cursor += 1
            if wanted in options:
                return options.index(wanted)
            if self.strict:
                raise ChoiceExhaustedError(
                    f"recorded thread {wanted!r} is not runnable "
                    f"(candidates: {list(options)})"
                )
            return 0
        if self.strict:
            raise ChoiceExhaustedError(
                f"schedule log exhausted after {len(self.names)} steps"
            )
        return 0


@dataclass
class RecordingScheduler(Scheduler):
    """Wraps another scheduler and records every decision it makes, with
    its options: the reference for the kernel's own record."""

    inner: Scheduler
    log: List[Decision] = field(default_factory=list)

    def reset(self) -> None:
        self.log.clear()
        self.inner.reset()

    def pick(self, kind: str, options: Sequence[str]) -> int:
        index = self.inner.pick(kind, options)
        decision = _new_object(Decision)
        _set_kind(decision, kind)
        _set_options(decision, tuple(options))
        _set_chosen(decision, index)
        self.log.append(decision)
        return index

    def decision_indices(self) -> List[int]:
        return [d.chosen for d in self.log]


# -- registry hookup (names usable in RunConfig.scheduler) ------------------
# Imports sit at the bottom so repro.run.registry (which imports nothing
# from repro) never participates in a cycle with this module.

from repro.run.registry import register_scheduler  # noqa: E402


@register_scheduler("fifo")
def _build_fifo(seed=None, **_params) -> Scheduler:
    return FifoScheduler()


@register_scheduler("round-robin")
def _build_round_robin(seed=None, **_params) -> Scheduler:
    return RoundRobinScheduler()


@register_scheduler("random")
def _build_random(seed=None, **_params) -> Scheduler:
    return RandomScheduler(seed)


@register_scheduler("replay")
def _build_replay(seed=None, *, prefix=(), **_params) -> Scheduler:
    return ReplayScheduler(list(prefix), fallback=FifoScheduler())
