"""Machine-speed probe: a fixed piece of work, timed between operations.

The benchmark runs on a few cores of a shared host whose speed drifts: a
fixed loop takes 1.7 times as long for seconds or minutes at a time, in
interpreted Python and in numpy alike, and process CPU time follows wall
time, so it is the core that slows, not the scheduler that waits.  A run's
medians cannot average such a stretch away, so two runs of the same code
can differ by a third.  :func:`factor` times a fixed mix of the kinds of
work an ``esharing`` command does (interpreted Python, small dense numpy
solves and a small HiGHS LP through ``scipy.optimize.linprog``) and returns
its time over :data:`REFERENCE_S`, the time the same work takes on the
reference machine.  The benchmark divides each operation's time by the
mean factor of the probes just before and just after it, which gives the
operation's time at reference speed.

The probe calls no ``esharing`` code, so a change to the package leaves it
unchanged and shows in full in the divided times.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import linprog

REFERENCE_S = 0.006
"""Median time of one :func:`_unit` on the reference machine, a 2-vCPU
shared Xeon VM, over a minute of probing; the benchmark's times are in
seconds at that speed."""

UNITS = 5
"""Units per probe; the probe reports their median, so that one unit hit by
an interrupt or a page fault does not count."""

_RNG = np.random.default_rng(0)
_M = _RNG.random((30, 30))
_A = _M @ _M.T + 30.0 * np.eye(30)
_B = _RNG.random(30)
_LP_C = -_RNG.random(12)
_LP_A = _RNG.random((8, 12))
_LP_B = np.ones(8)


def _unit() -> float:
    total = 0.0
    for i in range(6000):
        total += (i % 7) * 0.5
    for _ in range(150):
        total += float(np.linalg.solve(_A, _B)[0])
    res = linprog(_LP_C, A_ub=_LP_A, b_ub=_LP_B, bounds=(0.0, 1.0), method="highs")
    return total + res.fun


def factor() -> float:
    """Current slow-down against the reference machine at full speed."""
    times = []
    for _ in range(UNITS):
        started = time.perf_counter()
        _unit()
        times.append(time.perf_counter() - started)
    return statistics.median(times) / REFERENCE_S
