"""Machine-speed calibration, so that timings read at one reference speed.

A virtual machine on a shared host can change speed by 1.3-1.75x for
seconds to minutes at a time, for every kind of code; on a 2-vCPU Intel
Xeon VM, CPU time moved with wall time, so the time was not stolen from the
process.  A run that falls in a slow spell would read that much slower,
whatever the program did.  So a run times a fixed probe, written here on
the standard library and numpy and independent of beadproc, between its
ops, and scales each op's time by ``REFERENCE_S / probe time`` around it.
A change to the program moves the scaled times exactly as it moves the raw
ones; a change of machine speed moves both the ops and the probe and
largely cancels.  Raw wall times are printed next to the scaled ones.

The probe mixes three kinds of work the workloads do: exact rational
arithmetic on big integers, numpy array arithmetic, and plain interpreted
Python loops.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# Median probe time, inside a running workload, on the reference machine
# (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4).  Only an anchor for the units.
REFERENCE_S = 0.0050
# A probe is the median of this many rounds of the mix.
ROUNDS = 3

_COEFFS = [Fraction(i * i + 1, 3 * i + 7) for i in range(60)]
_POINT = Fraction(0.3712345678901234)
_RNG = np.random.default_rng(0)
_MATRIX = _RNG.random((64, 64))
_VECTOR = _RNG.random(4096)


def _rational():
    for _ in range(3):
        acc = Fraction(0)
        for c in _COEFFS:
            acc = acc * _POINT + c


def _arrays():
    for _ in range(20):
        _MATRIX @ _MATRIX
        np.sort(_VECTOR)
        np.cumsum(np.exp(-_VECTOR) * np.sqrt(_VECTOR + 1.0))


def _loop():
    s = 0.0
    for i in range(20000):
        s += (i % 7) * 0.5
    return s


def probe():
    """Seconds one round of the mix takes now: the median of ``ROUNDS`` rounds."""
    clock = time.perf_counter
    times = []
    for _ in range(ROUNDS):
        t0 = clock()
        _rational()
        _arrays()
        _loop()
        times.append(clock() - t0)
    return statistics.median(times)


def scale(probe_times):
    """Factor that turns raw seconds into seconds at the reference speed."""
    return REFERENCE_S / statistics.mean(probe_times)
