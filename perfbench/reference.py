"""A fixed numpy kernel that tracks the host's speed during a run.

On a shared host the same work runs up to 1.6x slower for seconds to
minutes at a time, and every timing of a run moves with it. The benchmark
therefore times this kernel between its units of work and divides each
wall time by the run's *host slowness*: the mean kernel time over a fixed
nominal time. The kernel is the benchmark's own code, not the package's, so
a change to the package moves the normalised timings and a change of the
host's speed does not. The kernel mimics a workload's hot path at its
shape: a conv-like product, ReLU, batch-norm statistics and normalisation,
pooling, a backward-like product, and a little interpreter work.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass(frozen=True)
class Kernel:
    rows: int          # batch x length of the im2col matrix
    cols: int          # in-channels x kernel size
    filters: int
    reps: int
    every: int         # stream batches between samples
    nominal_s: float   # kernel seconds on a calm 2.1 GHz Xeon vCPU; fixes the scale


# desk workloads: B=32, L=64, 24 filters; mfd-accup: B=8, L=5120, 64 filters
DESK = Kernel(rows=32 * 64, cols=24 * 3, filters=24, reps=20, every=25, nominal_s=0.025)
MFD = Kernel(rows=8 * 5120, cols=64 * 3, filters=64, reps=1, every=1, nominal_s=0.125)


class HostSpeed:
    """Samples of the kernel's time, taken between units of a run's work."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((kernel.rows, kernel.cols))
        self.w = rng.standard_normal((kernel.cols, kernel.filters))
        self.samples = []

    def sample(self) -> float:
        """Time the kernel once; returns its seconds, to leave out of a timing."""
        x, w = self.x, self.w
        t0 = perf_counter()
        for _ in range(self.kernel.reps):
            y = np.maximum(x @ w, 0.0)
            y = (y - y.mean(axis=0)) / np.sqrt(y.var(axis=0) + 1e-5)
            pooled = y.reshape(-1, 2, y.shape[1]).max(axis=1)
            grad = y.T @ x
            _ = float(pooled.sum()) + float(grad.sum()) + sum(i * 2 for i in range(100))
        dt = perf_counter() - t0
        self.samples.append(dt)
        return dt

    def last_slowness(self) -> float:
        """Slowness from the last two samples, for the work done between them."""
        return (self.samples[-2] + self.samples[-1]) / 2 / self.kernel.nominal_s

    def slowness(self) -> float:
        """Mean kernel time over its nominal time: above 1 on a slow host."""
        return float(np.mean(self.samples)) / self.kernel.nominal_s
