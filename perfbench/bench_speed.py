"""Machine speed, measured alongside the workload so timings can be scaled.

On a shared virtual machine the same pure-Python work runs up to a third
faster or slower from one minute to the next, as neighbours come and go,
while this process keeps its CPU the whole time.  A fixed calibration
workload, timed every quarter second between items, moves with it: on a
2-vCPU virtual machine, the quartile spread of items per second over ten
seeds was 0.10-0.23 of the median in raw wall time and 0.02-0.06 with
item times divided by the calibration time of the same few seconds.

The calibration mixes what the library spends its time on (Fraction
arithmetic, fraction-free integer elimination, dict and list work) but runs
none of the library's code, and the garbage collector is off while it runs,
so a change to the library's code does not move it and no collection of the
library's garbage lands in it.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time
from fractions import Fraction
from math import gcd

# Median calibration time on a 2-vCPU Xeon virtual machine (2.1 GHz) at its
# usual speed; scaled timings read as if measured at that speed.
REFERENCE_S = 0.005
SAMPLE_EVERY_S = 0.25
HALF_WINDOW_S = 1.5
MIN_SAMPLES = 5

_rng = random.Random(0)
_MATRIX = [[_rng.randint(-9, 9) for _ in range(24)] for _ in range(24)]
_FRACTIONS = [Fraction(_rng.randint(-50, 50), _rng.randint(1, 12)) for _ in range(200)]


def calibrate() -> int:
    """A fixed piece of pure-Python work (about 5 ms); returns a checksum."""
    total = Fraction(0)
    for a, b in zip(_FRACTIONS, _FRACTIONS[1:]):
        total += a * b - b
    rows = [list(r) for r in _MATRIX]
    rank = 0
    for col in range(len(_MATRIX)):
        piv = next((r for r in rows if r[col]), None)
        if piv is None:
            continue
        rows.remove(piv)
        rank += 1
        reduced = []
        for r in rows:
            if r[col]:
                g = gcd(piv[col], r[col])
                p, q = piv[col] // g, r[col] // g
                r = [p * x - q * y for x, y in zip(r, piv)]
                content = 0
                for v in r:
                    content = gcd(content, v)
                if content > 1:
                    r = [v // content for v in r]
            reduced.append(r)
        rows = reduced
    buckets: dict[int, list] = {}
    for i in range(4000):
        buckets.setdefault(i * 31 % 257, []).append(i)
    return rank + total.denominator + len(sorted(len(v) for v in buckets.values()))


class Speed:
    """Calibration samples of one run, timed on the wall clock (perf_counter).

    slowdown(t) compares the calibrations within HALF_WINDOW_S of time t
    with the reference, so a change of machine speed partway through a run
    is followed.
    """

    def __init__(self):
        self.times: list[float] = []  # midpoint of each sample
        self.samples: list[float] = []  # its duration
        self.spent = 0.0

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            calibrate()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append((t0 + t1) / 2)
        self.samples.append(t1 - t0)
        self.spent += t1 - t0

    def sample_if_due(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def slowdown(self, at: float | None = None) -> float:
        """Median calibration time near time `at` (whole run if None) / reference."""
        window = self.samples
        if at is not None:
            lo = bisect.bisect_left(self.times, at - HALF_WINDOW_S)
            hi = bisect.bisect_right(self.times, at + HALF_WINDOW_S)
            if hi - lo >= MIN_SAMPLES:
                window = self.samples[lo:hi]
        return statistics.median(window) / REFERENCE_S
