"""A fixed calibration kernel: how fast this core runs at the moment.

On a shared host the speed of a core swings by up to 2x over seconds to
minutes, as other tenants load the same physical cores, and it moves a
whole run's wall time with it.  worker.py runs this kernel between the
workload's passes, and each set-up interpreter that run.py starts runs
it twice after its import.  Every measured time is then scaled by
``REFERENCE_S / kernel time``: the time the work would take on a core at
which the kernel takes ``REFERENCE_S`` seconds.  A change to selfnorm
moves the scaled times exactly as it moves the raw ones, because the
kernel calls nothing of selfnorm.

The kernel does the kind of work the workloads do: SciPy's adaptive
quadrature over a Python integrand built from NumPy scalar functions
(as in ``distributions.log_mgf2`` and ``summand_lp_norm``), and NumPy
sampling and reduction over small blocks (as in ``mc.empirical_tail``).
It runs on one thread, and its blocks (64 KiB) stay below the C
allocator's mmap threshold, so that they leave the worker's peak
resident memory as the workload alone sets it.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import integrate

REFERENCE_S = 0.25  # a round figure near the kernel's time on the baseline machine
QUAD_ROUNDS = 120
SAMPLE_ROUNDS = 256


def _integrand(x: float, p: float) -> float:
    with np.errstate(divide="ignore"):
        e = p * np.log(np.abs(x - 0.3 * (1.0 - x * x))) - 0.5 * x * x
    return math.exp(e)


def kernel_s() -> float:
    """Wall seconds of one run of the calibration kernel."""
    t0 = time.perf_counter()
    for k in range(QUAD_ROUNDS):
        integrate.quad(_integrand, -8.0, 8.0, args=(1.0 + 0.25 * (k % 8),),
                       limit=300)
    rng = np.random.default_rng(12345)
    for _ in range(SAMPLE_ROUNDS):
        block = rng.standard_normal((1024, 8))
        np.count_nonzero(block.sum(axis=1) > 8.0)
    return time.perf_counter() - t0


def scale(seconds: float, kernel_seconds: float) -> float:
    """``seconds`` at the reference speed, given the kernel's time next to it."""
    return seconds * REFERENCE_S / kernel_seconds
