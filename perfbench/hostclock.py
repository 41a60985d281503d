"""Host-normalized timing.

On a shared host the speed of a core drifts by tens of percent over
stretches of ten seconds and more, so raw wall times of the same work
disagree from one run to the next far more than any bound a regression
check could use.  Every timed stage is therefore bracketed by a fixed
reference kernel (pure-Python dict and float work plus small numpy sorts,
the same mix the repro layers run), and its wall time is scaled by
``NOMINAL_REFERENCE_S / (mean of the two reference timings)``.  A slow
phase of the host slows the kernel and the stage alike and cancels; a
slower program does not slow the kernel and shows in full.  On a quiet
host the factor is close to 1, so the scaled numbers keep their units.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Tuple

import numpy as np

#: Reference-kernel time on a quiet 2-vCPU x86-64 host (Python 3.11,
#: numpy 2.4); the scale factor is 1 when the kernel runs this fast.
NOMINAL_REFERENCE_S = 0.0075

_SORTED = np.arange(20_000, dtype=np.float64)


def _kernel_once() -> float:
    started = time.perf_counter()
    table = {}
    total = 0.0
    for index in range(40_000):
        table[index & 255] = total
        total += (index * 0.5) % 7.0
    values = _SORTED
    for _ in range(20):
        values = np.sort(values[::-1]) + 1.0
    return time.perf_counter() - started


def reference_kernel() -> float:
    """Run the fixed reference work three times; returns the median time."""
    return sorted(_kernel_once() for _ in range(3))[1]


def host_factor(before: float, after: float) -> float:
    return NOMINAL_REFERENCE_S / ((before + after) / 2.0)


def timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """``fn()``'s result and its host-normalized wall time."""
    before = reference_kernel()
    started = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - started
    return result, wall * host_factor(before, reference_kernel())
