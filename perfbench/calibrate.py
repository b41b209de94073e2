"""A fixed pure-Python kernel that measures how fast the host runs right now.

The benchmark's hosts share their cores: the same computation can take half
again as long from one few-second phase to the next.  The harness runs this
kernel between ops and scales every time it reports by ``REFERENCE_S`` over
the kernel's local time, which turns wall seconds into seconds on a host
where the kernel takes ``REFERENCE_S``.  A change to wpchow moves the scaled
times; a change in the host's speed, which moves the kernel as well, cancels.

The kernel does what wpchow spends its time on, without calling wpchow:
sparse polynomials as dicts keyed by exponent tuples, fraction-free row
operations on big integers, and ``Fraction`` arithmetic.  Its inputs are
fixed, and the garbage collector is off while it runs, so the size of the
calling process's heap does not reach its time.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd

# Scaled times are wall times on a host where the kernel takes this long: a
# round figure near its time on a 2.0 GHz vCPU with Python 3.11 in the
# host's fast phases (1.0-1.1 ms; 1.4-1.7 ms in the slow ones).
REFERENCE_S = 0.001
REPEATS = 2  # kernel runs per sample; a sample is the fastest of them

_rng = random.Random(0)
_POLY = {
    (_rng.randrange(5), _rng.randrange(5), _rng.randrange(5)): _rng.randrange(-20, 21) or 1
    for _ in range(40)
}
_ROWS = [[_rng.randrange(-(1 << 90), 1 << 90) for _ in range(8)] for _ in range(8)]
_FRACTIONS = [Fraction(_rng.randrange(1, 10**6), _rng.randrange(1, 10**6)) for _ in range(60)]


def _kernel() -> int:
    product: dict = {}
    for ka, va in _POLY.items():
        for kb, vb in _POLY.items():
            key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            product[key] = product.get(key, 0) + va * vb
    rows = [list(row) for row in _ROWS]
    for i in range(len(rows) - 1):
        pivot = rows[i]
        for row in rows[i + 1:]:
            factor = row[i]
            row[:] = [pivot[i] * x - factor * p for x, p in zip(row, pivot)]
            common = 0
            for x in row:
                common = gcd(common, x)
            if common > 1:
                row[:] = [x // common for x in row]
    total = Fraction(0)
    for x in _FRACTIONS:
        total = total * x + x
    return len(product) + rows[-1][-1].bit_length() + total.denominator.bit_length()


def sample() -> float:
    """Fastest wall time of ``REPEATS`` kernel runs, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return min(times)


class HostClock:
    """Kernel samples taken during a run, for scaling the run's times.

    The host switches between speeds that differ by up to 1.6x, for a few
    seconds at a time.  Samples come often, and an interval is scaled by the
    samples from the last one before it to the first one after it.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (harness time, kernel seconds), in order

    def add(self, seconds: float) -> None:
        self.samples.append((time.perf_counter(), seconds))

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median kernel time around [start, end]."""
        times = [t for t, _ in self.samples]
        first = max(bisect_right(times, start) - 1, 0)
        last = min(bisect_left(times, end), len(times) - 1)
        near = [seconds for _, seconds in self.samples[first:last + 1]]
        return REFERENCE_S / statistics.median(near)
