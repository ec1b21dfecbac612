"""Calibration probe: a fixed kernel timed right before and after every
measured section.

On a small shared machine the CPU speed seen by one process drifts by up to
1.7x over tens of seconds as co-tenants come and go, and a whole 20-second
run can sit in the slow state, so no statistic of raw wall time is steady
from run to run.  The ratio of a section's time to the probe's time next to
it is steady (its block medians stay within a few percent while raw times
swing by half).  Every reported time is therefore the measured time scaled
by REF_S / probe time: seconds at the probe's reference speed.  The probe
mixes interpreted Python with single-threaded numpy work, like the
workloads; it stays off BLAS, whose thread hand-offs make a short kernel
erratic when the other core is busy.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.004  # about the probe's time on a 2-vCPU Xeon VM when it is not contended


class Probe:
    def __init__(self):
        self._x = np.random.default_rng(0).standard_normal(20000)

    def __call__(self) -> float:
        """Seconds one run of the kernel takes now."""
        started = time.perf_counter()
        acc = 0
        table = {}
        for i in range(30000):
            table[i & 255] = acc
            acc += i * i % 7
        for _ in range(4):
            np.sort(self._x)
            np.sqrt(self._x * self._x + 1.0).sum()
        return time.perf_counter() - started


def normalized(seconds: float, probe_s: float) -> float:
    """A measured time at the probe's reference speed."""
    return seconds * REF_S / probe_s
