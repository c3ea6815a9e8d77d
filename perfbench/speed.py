"""Time measured at a fixed machine speed, on a host whose speed drifts.

On a 2-vCPU Xeon VM that shares its host with other work, the speed of a
core drifts with that work: a fixed pure-Python loop takes 25 ms in one
second and 37 ms in the next, and a whole run can be 15-50% slower than one
made minutes earlier.  Wall-clock figures then spread wider than any useful
regression bound.

:class:`SpeedClock` measures the speed of the core the analysis runs on,
while it runs.  A real-time interval timer interrupts the process every
:data:`PERIOD_S` seconds; the handler runs in the measured thread, between
two bytecodes of the program, and times :data:`LOOP` iterations of a fixed
calibration loop.  :meth:`SpeedClock.seconds` turns a wall-clock interval
into *reference seconds*: the interval minus the time spent in the handler,
scaled by how much slower than :data:`REFERENCE_S` the loop ran in that
interval.  A program that does more work reads more reference seconds at any
machine speed; a slower machine does not.

The loop is made of the operations the analysis spends its time on (memo
keys built from frozensets of tuples, dict lookups, ``Fraction``
arithmetic), because contention slows those more than it slows a loop of
small-integer adds: scaled by such a loop, a slow run still read about half
of its slowdown; scaled by this one, its reference seconds do not follow the
machine's speed.  Only the end-to-end metrics use it; the traced run
measures wall time with no timer, so spans hold no calibration work.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction
from typing import Dict, FrozenSet, List, Tuple

#: Seconds between two speed samples.
PERIOD_S = 0.01
#: Iterations of the calibration loop per sample (about 0.3 ms).
LOOP = 100
#: The duration of one sample at the reference speed: about the loop's
#: median on a quiet 2-vCPU Xeon VM.  It only fixes the scale of reference
#: seconds.
REFERENCE_S = 0.0003
#: An interval with fewer samples than this is widened on both sides until
#: it has them.
MIN_SAMPLES = 8

_MEMO: Dict[FrozenSet[Tuple[int, int]], Fraction] = {}


def _calibration_loop(count: int) -> Fraction:
    total = Fraction(0)
    for i in range(count):
        key = frozenset(((i % 31, i % 7), (i % 5, 3)))
        value = _MEMO.get(key)
        if value is None:
            _MEMO[key] = value = Fraction(i % 13 + 1, i % 11 + 1)
        total += value
    return total


# Fill the memo (every key repeats within 31 * 7 * 5 iterations), so that
# every sample does the same work.
_calibration_loop(31 * 7 * 5)


class SpeedClock:
    """Speed samples of this process's core, taken while it works."""

    def __init__(self) -> None:
        #: (perf_counter at the start of the sample, sample seconds), in order.
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _sample(self, *_signal) -> None:
        started = time.perf_counter()
        _calibration_loop(LOOP)
        self.samples.append((started, time.perf_counter() - started))

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the interval between two ``perf_counter`` readings."""
        lo, hi = self._bounds(start, end)
        work = (end - start) - sum(duration for _, duration in self.samples[lo:hi])
        return work * self.scale(start, end)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second of work in an interval."""
        lo, hi = self._bounds(start, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.samples)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.samples))
        nearby = self.samples[lo:hi]
        if not nearby:
            raise RuntimeError("no speed samples were taken")
        return sum(REFERENCE_S / duration for _, duration in nearby) / len(nearby)

    def _bounds(self, start: float, end: float) -> Tuple[int, int]:
        """The slice of :attr:`samples` that started inside the interval."""
        starts = [sample[0] for sample in self.samples]
        return bisect.bisect_left(starts, start), bisect.bisect_left(starts, end)
