"""CPU-speed calibration, so that times from a noisy shared host compare.

The host runs the same Python code up to 2x slower for seconds to
minutes at a time, which moves raw timings of whole runs by 10-35%.
A fixed piece of interpreter work (``calibrate``) slows down with it.
``SpeedSampler`` therefore runs it every CAL_EVERY_S from a SIGALRM
handler in the process doing the work, and reports a wall interval as
the seconds it would have taken at the speed at which ``calibrate``
takes CAL_REF_S (``scaled``), leaving out the handler's own time.

The calibration work is of the kind struveint does: small objects
built and read through attributes, Python calls, list and dict stores
and float math.  In the host's slow phases this slows as much as
struveint does; a plain float loop slowed less.  Over six minutes of
point-hard quadratures the spread of 25-second means, (Q3 - Q1) /
median, was 0.36 raw, 0.08 scaled by a float loop and 0.02 scaled by
this work.

Kept to the standard library and cheap to import: the verify-cli
children load it before struveint.
"""

from __future__ import annotations

import bisect
import math
import signal
from time import perf_counter

CAL_REF_S = 1.5e-3
CAL_EVERY_S = 0.25


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b


def _term(p: _Point, k: int) -> float:
    return p.a * math.exp(-k * 1e-3) / (p.b + 1.5)


def calibrate(reps: int = 3) -> float:
    """Fastest of ``reps`` runs of a fixed piece of interpreter work, in
    seconds."""
    best = math.inf
    for _ in range(reps):
        t0 = perf_counter()
        s = 0.0
        partial = []
        recent = {}
        for k in range(1, 2500):
            s += _term(_Point(k * 1e-3, float(k)), k)
            partial.append(s)
            recent[k & 63] = s
        best = min(best, perf_counter() - t0)
    return best


class SpeedSampler:
    """Calibrates on entry, every CAL_EVERY_S while active, and on exit."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (begin, end, loop s)
        self._previous = None

    def _sample(self, *_signal) -> None:
        begin = perf_counter()
        cal = calibrate()
        self.samples.append((begin, perf_counter(), cal))

    def __enter__(self) -> "SpeedSampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()



def scaled(samples, t0: float, t1: float) -> float:
    """Seconds of [t0, t1], outside calibrations, at the reference speed.

    ``samples`` are a finished SpeedSampler's ``(begin, end, loop s)``;
    each gap between calibrations is scaled by the mean of the two that
    bound it.
    """
    i = max(0, bisect.bisect_right(samples, t0, key=lambda sample: sample[0]) - 1)
    total = 0.0
    for j in range(i, len(samples) - 1):
        (_, end0, cal0), (begin1, _, cal1) = samples[j], samples[j + 1]
        if end0 >= t1:
            break
        overlap = min(t1, begin1) - max(t0, end0)
        if overlap > 0.0:
            total += overlap * 2.0 * CAL_REF_S / (cal0 + cal1)
    return total
