"""Host pace: how fast the shared host runs Python while a workload runs.

On a shared host the same code can take twice as long from one
millisecond to the next, and stay slow for minutes, in CPU time as well
as wall time: what the host gives other guests slows our core without
taking it away.  Neither CPU time nor the best of a few repeats hides
that.  So every process of a workload samples the pace: every
:data:`INTERVAL_S` of its CPU time, ``SIGPROF`` interrupts it between two
bytecodes and it runs :func:`burst`, a fixed bit of interpreter work, and
times it.  A region's CPU time, bursts left out, is then rescaled to
*reference seconds*: what it would have taken at the pace at which
:func:`burst` takes :data:`REFERENCE_S`.

The rescaling factor is ``REFERENCE_S`` over the bursts' harmonic mean.
Bursts come at even steps of CPU time, so slow spells get more of them
than their share of the work; the harmonic mean undoes that weighting
and gives the mean slowdown per unit of work.
"""

from __future__ import annotations

import json
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

#: CPU seconds between two bursts (``ITIMER_PROF`` counts process CPU time)
INTERVAL_S = 0.005
#: the burst's duration on an unshared core of the host the baseline was
#: recorded on (2 vCPUs of a Xeon, Python 3.11); it fixes the unit only
REFERENCE_S = 85e-6


class _Probe:
    __slots__ = ("a", "b")

    def __init__(self, a: int) -> None:
        self.a = a
        self.b = a & 7


def _index(i: int, probe: _Probe) -> int:
    return (i ^ probe.a) & 15


def burst(table: dict, probe: _Probe) -> int:
    """About 85 us of calls, attribute reads, dict updates and integer
    arithmetic on a 16-entry ``table``; it allocates nothing, so it never
    starts a collection."""
    total = 0
    for i in range(400):
        k = _index(i, probe)
        table[k] = (table[k] + i) & 1023
        total = (total + probe.b) & 65535
    return total


@dataclass(frozen=True)
class Mark:
    """A point in a paced process: its main thread's CPU clock and the
    bursts so far (count, their CPU time, sum of their inverse times)."""

    cpu: float
    count: int
    spent: float
    inverse: float


class Pace:
    """Run and time bursts in this process, from ``SIGPROF``."""

    def __init__(self) -> None:
        self._table = dict.fromkeys(range(16), 0)
        self._probe = _Probe(3)
        self.running = False
        self.count = 0
        self.spent = 0.0
        self.inverse = 0.0

    def _on_signal(self, signum, frame) -> None:
        # the main thread's clock: the process clock stops advancing
        # between scheduler ticks while a profiling timer is armed
        start = time.thread_time()
        burst(self._table, self._probe)
        took = time.thread_time() - start
        if took > 0:
            self.count += 1
            self.spent += took
            self.inverse += 1.0 / took

    def start(self) -> "Pace":
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self.running = True
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        self.running = False

    def mark(self) -> Mark:
        """Read the clock and the counters with no burst in between."""
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGPROF})
        try:
            return Mark(time.thread_time(), self.count, self.spent, self.inverse)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)

    def reference_s(self, start: Mark, end: Mark) -> float:
        """Main-thread CPU time from ``start`` to ``end``, bursts left
        out, in reference seconds."""
        return rescale(
            end.cpu - start.cpu - (end.spent - start.spent),
            [(end.count - start.count, end.inverse - start.inverse),
             (self.count, self.inverse)],
        )

    def save(self, path: Path) -> None:
        path.write_text(json.dumps([self.count, self.spent, self.inverse]))


def rescale(cpu_s: float, paces: Iterable[tuple]) -> float:
    """``cpu_s`` at reference pace, using the first ``(count, inverse)``
    pair that has any bursts; unchanged if none has."""
    for count, inverse in paces:
        if count:
            return cpu_s * REFERENCE_S * inverse / count
    return cpu_s


def combined(paths: Iterable[Path]) -> Pace:
    """The bursts several finished processes saved, summed."""
    total = Pace()
    for path in paths:
        count, spent, inverse = json.loads(path.read_text())
        total.count += count
        total.spent += spent
        total.inverse += inverse
    return total
