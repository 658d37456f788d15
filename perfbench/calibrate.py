"""A fixed reference computation that measures how fast the machine runs
right now.

On a virtual machine whose CPUs are shared with other tenants, the same
batch can take nearly twice as long while a neighbour is busy, and such
phases last from seconds to minutes.  run.py therefore scales every time by the
machine's speed, measured with `calibrate()` before and after each
command, off the clock.  Scaling each command by the mean of the two
samples around it held the run-to-run spread of batch times and tail
latencies lower than one factor per batch.  `calibrate()` does a little of each kind of work the workloads
do (interpreted integer and dict code, and FFTs and array arithmetic)
and does not touch knotfield.  A scaled time reads as the time the same
work takes when `calibrate()` takes REFERENCE_S.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# calibrate() on a quiet 2-CPU Xeon VM with Python 3.11 and numpy 2.4.
REFERENCE_S = 0.006


def calibrate():
    """Seconds the reference computation takes now."""
    t0 = perf_counter()
    table = {}
    x = 0
    for k in range(15000):
        x = (x * 31 + k) % 1000003
        table[x & 1023] = table.get(x & 1023, 0) + 1
    grid = np.arange(32 ** 3, dtype=float).reshape(32, 32, 32) % 7.0
    for _ in range(2):
        grid = np.abs(np.fft.ifftn(np.fft.fftn(grid) * 0.5)) + 1.0
    return perf_counter() - t0


def slowdown(samples):
    """How many times slower than the reference the machine ran, from
    calibration samples taken around the measured work."""
    return sum(samples) / (len(samples) * REFERENCE_S)
