"""Machine-speed calibration.

On a shared machine the speed of pure-Python code drifts by up to a factor
of two in phases lasting from seconds to minutes.  A fixed stdlib kernel
(exact Fraction products accumulated into a dict keyed by exponent tuples,
the same kind of work as the sl2cox polynomial core, but none of its code)
is timed next to the measured calls, and each time is rescaled to the
reference speed at which the kernel takes ``REF_S`` seconds:

    reported = measured * REF_S / (kernel time around the measurement)

The kernel runs none of sl2cox's code, and it runs with the garbage
collector off, so its time does not depend on how many objects sl2cox
keeps alive.  A change to sl2cox therefore moves the rescaled times in
proportion to the measured ones, except for the kernel's own drift against
sl2cox between the machine's phases (up to about 10 %, see README.md).
The measured values are printed next to the rescaled ones.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

REF_S = 0.002  # kernel time at the reference speed (seconds)
EVERY_S = 0.3  # least spacing of kernel samples in a measured run
WINDOW_S = 1.0  # samples this close to a measurement rescale it


def kernel() -> dict:
    acc: dict = {}
    for i in range(1, 800):
        key = (i % 5, i % 7, i % 3, i % 11)
        c = Fraction(i % 13 + 1, i % 17 + 1) * Fraction(i % 19 + 1, i % 23 + 1)
        prev = acc.get(key)
        acc[key] = c if prev is None else prev + c
    return acc


def sample() -> tuple[float, float]:
    """(midpoint, median duration) of three kernel runs, with the garbage
    collector off."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        runs = []
        for _ in range(3):
            t = perf_counter()
            kernel()
            runs.append(perf_counter() - t)
        return (t0 + perf_counter()) / 2, statistics.median(runs)
    finally:
        if was_on:
            gc.enable()


def local_speed(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """Median kernel time of the samples within WINDOW_S of [start, end].
    A measured run samples at most EVERY_S before each measurement, so
    there is always at least one."""
    return statistics.median(d for t, d in samples if start - WINDOW_S <= t <= end + WINDOW_S)


def rescale(seconds: float, kernel_s: float) -> float:
    return seconds * REF_S / kernel_s
