"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on shared machines whose speed drifts by tens of percent
over seconds to minutes (neighbouring load, cache and memory contention,
frequency changes).  A run therefore also times a fixed kernel that does not
touch the program under test, in short samples taken between the units of
work of every episode (sessions, groups of lock-step steps, service
rounds), so the samples cover the same stretches of time as the work.  The kernel mixes what a tuning step spends its time on: small
NumPy solves, Python lists, dicts and float arithmetic.  (A variant that
added random reads over a 30 MB working set tracked the workloads worse.)

``speed`` is the run's median kernel time over ``REFERENCE_KERNEL_S``: above
1 the machine ran slow.  Reported end-to-end times are divided by ``speed``
(rates multiplied), which expresses them at the reference machine speed and
cancels most of the drift between runs.  The raw, unscaled values are
printed and stored next to them.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import List

import numpy as np

__all__ = ["REFERENCE_KERNEL_S", "Calibration"]

# Median kernel time on the machine the bounds were set on (2-vCPU x86-64
# VM, Python 3.11, NumPy 2.4).  Only the scale of reported values depends on
# it, not their run-to-run spread.
REFERENCE_KERNEL_S = 0.0025


class Calibration:
    """Collects kernel samples over a run."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    @staticmethod
    def kernel() -> float:
        rng = np.random.default_rng(12345)
        X = rng.random((10, 6))
        y = rng.random(10)
        eye = np.eye(6)
        table = {}
        acc = 0.0
        for i in range(120):
            coef = np.linalg.solve(X.T @ X + eye * (1.0 + i * 1e-3), X.T @ y)
            acc += float(coef.sum())
            row = [acc * j for j in range(8)]
            table[i % 31] = max(row)
        return acc + sum(table.values())

    def sample(self, repeats: int = 3) -> None:
        """Time the kernel ``repeats`` times."""
        for _ in range(repeats):
            t0 = perf_counter()
            self.kernel()
            self.samples.append(perf_counter() - t0)

    @property
    def speed(self) -> float:
        """Median kernel time relative to the reference machine."""
        return statistics.median(self.samples) / REFERENCE_KERNEL_S
