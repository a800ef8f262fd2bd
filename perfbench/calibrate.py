"""Machine-speed calibration for the timings of a run.

The machine these figures come from is a shared virtual machine whose
speed drifts by up to 1.8x over seconds to minutes, so raw timings of two
runs are not comparable. Every timing is therefore taken next to samples of
a fixed kernel that uses no library code: exact Fraction arithmetic, a dict
and plain Python calls, the same kinds of work the library does. A timing
is reported as `raw * REFERENCE_S / kernel`, that is, as it would read on
the machine at the speed where the kernel takes REFERENCE_S. Raw timings
are kept in the run record.
"""
from __future__ import annotations

import time
from fractions import Fraction

# The kernel's time on the machine of the first baseline (see README.md),
# in its fast state; it only fixes the scale of calibrated timings.
REFERENCE_S = 0.0006


def kernel():
    p, q = Fraction(3, 7), Fraction(-5, 9)
    x0, x1 = Fraction(0), Fraction(1)
    for _ in range(100):
        x0, x1 = x1, p * x1 - q * x0
    squares = {}
    for i in range(200):
        squares[i] = i * i
    return x1, squares


def sample() -> float:
    """Kernel time now: the faster of two back-to-back runs."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best
