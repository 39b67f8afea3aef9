"""Host speed, measured on the worker's own core while the worker runs.

On a shared host the speed of a core drifts by 20-50% over seconds to
minutes, with CPU time tracking wall time: the slowdown is per cycle (other
tenants on the same physical core), not time stolen from the guest.  The
two cores of a 2-core VM drift independently of each other, so medians over
one run follow the drift of whichever core the run landed on.

The benchmark therefore pins itself and its workers to one core.  While a
worker runs, this process wakes every ``PERIOD_S``, times one small fixed
unit of work on that core and sleeps again (about a tenth of the core).
The units take turns and cover the kinds of work the jobs do: Fraction
arithmetic, dict-of-monomials products, 50-digit mpmath, small numpy
arrays, and allocation and sorting.  The core's slowdown during a job is
the mean over units of (mean unit time / its reference time), and

    corrected seconds = measured seconds / slowdown

expresses every time of the job at one reference speed.  A change to the
program moves its corrected times as it moves its wall times; drift of the
core moves both the job and the units and cancels.  The raw wall times are
printed beside the corrected ones.  The units import nothing from the
package, so a change to it cannot move them.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction
from typing import List

import mpmath
import numpy

#: Sleep between units.
PERIOD_S = 0.01

_clock = time.perf_counter
_MP = mpmath.MPContext()
_MP.dps = 50


def _fractions() -> None:
    total = Fraction(0)
    table = {}
    for i in range(1, 401):
        total += Fraction(i % 7 + 1, i % 97 + 1)
        table[(i * 7919) % 61] = total.numerator & 0xFFFF


def _monomials() -> None:
    p = {(i, j): i * 3 + j + 1 for i in range(6) for j in range(5)}
    q = {(i, j): 2 * i - j + 5 for i in range(5) for j in range(4)}
    out = {}
    for (a, b), c in p.items():
        for (d, e), f in q.items():
            key = (a + d, b + e)
            out[key] = out.get(key, 0) + c * f


def _mpmath() -> None:
    x = _MP.mpf(1)
    y = _MP.mpf(3) / 7
    for i in range(60):
        x = x * y + _MP.mpf(i) / 11
        y = _MP.sqrt(y + 1)


def _numpy() -> None:
    y = numpy.arange(4.0)
    k = numpy.ones(4)
    for _ in range(150):
        k = 0.5 * y + 0.1 * k
        y = y + 0.01 * k
        float(numpy.max(numpy.abs(k)))


def _alloc() -> None:
    pairs = [(i * 7919 % 1009, i) for i in range(1500)]
    pairs.sort()
    dict(pairs)


#: Each unit with its mean time, in seconds, while a worker shares the core
#: on a 2-core Xeon VM at 2.1 GHz (Python 3.11), so that corrected times
#: read close to wall times there.  The references only set the scale: any
#: fixed values give the same ratios between runs.
UNITS = (
    (_fractions, 1.46e-3),
    (_monomials, 0.187e-3),
    (_mpmath, 0.94e-3),
    (_numpy, 1.16e-3),
    (_alloc, 0.71e-3),
)


def one_core() -> List[int]:
    """The core the benchmark and its workers share."""
    return [min(os.sched_getaffinity(0))]


def slowdown_while(proc, deadline: float) -> float:
    """Run the units in turn until ``proc`` exits or the monotonic clock
    passes ``deadline``; the core's slowdown over that time against the
    reference times (at least one unit runs)."""
    calls = [0] * len(UNITS)
    busy = [0.0] * len(UNITS)
    k = 0
    while True:
        i = k % len(UNITS)
        t0 = _clock()
        UNITS[i][0]()
        busy[i] += _clock() - t0
        calls[i] += 1
        k += 1
        if proc.poll() is not None or time.monotonic() >= deadline:
            break
        time.sleep(PERIOD_S)
    ratios = [busy[i] / calls[i] / ref for i, (_, ref) in enumerate(UNITS) if calls[i]]
    return sum(ratios) / len(ratios)
