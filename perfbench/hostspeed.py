"""Host-speed calibration: a fixed kernel timed between the benchmark's calls.

On a shared host the processor's speed drifts: one round of the same calls
can take twice as long as the round before, and whole runs differ by 20%.
The drift slows this kernel and the program alike, so each call time is
scaled by REFERENCE_MS / (the kernel's time measured around it), which
expresses it at the host speed the kernel had when REFERENCE_MS was taken.

The kernel mimics the program's cost profile, Python arithmetic and
numpy/LAPACK calls on 2x2 operands, but shares no code with it, so a
change to the program cannot change the kernel.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

import numpy as np

REFERENCE_MS = 5.0     # near the kernel's median on the host of the README's figures
INTERVAL_NS = 100_000_000   # wall time between kernel runs
WINDOW = 2             # kernel runs on each side of a segment that scale it

_KEY = np.array([5, 7], dtype=np.uint64)


def kernel() -> float:
    rng = np.random.Generator(np.random.Philox(key=_KEY))
    acc = 0.0
    for _ in range(40):
        a = rng.standard_normal(8).reshape(2, 2, 2)
        s = np.linalg.svd(a[:, :, 0] + a[:, :, 1], compute_uv=False)
        v = np.einsum("ijk,j,k->i", a, a[0, :, 0], a[1, 0, :])
        r = np.roots(np.array([1.0, *a.ravel()]))
        e = np.linalg.eigvals(np.linalg.solve(a[:, :, 0], a[:, :, 1]))
        p = 0.0
        for x in a.ravel().tolist():
            p = p * 0.5 + x * x - abs(x)
        acc += float(s[0]) + float(v @ v) + abs(r[0]) + abs(e[0]) + p
    return acc


def kernel_ns() -> int:
    t0 = perf_counter_ns()
    kernel()
    return perf_counter_ns() - t0


class HostClock:
    """Times kernel runs at segment boundaries, at most INTERVAL_NS apart.

    Call `tick` between the timed calls; `factor(segment)` is the scale for
    the calls made in that segment.
    """

    def __init__(self):
        kernel()    # the first run in a process pays one-time costs
        self.kernel_ns = [kernel_ns()]
        self._last = perf_counter_ns()

    @property
    def segment(self) -> int:
        return len(self.kernel_ns) - 1

    def tick(self, force: bool = False):
        if force or perf_counter_ns() - self._last >= INTERVAL_NS:
            self.kernel_ns.append(kernel_ns())
            self._last = perf_counter_ns()

    def finish(self):
        """Close the last segment."""
        self.kernel_ns.append(kernel_ns())

    def factor(self, segment: int) -> float:
        # segment j lies between kernel runs j and j + 1
        near = self.kernel_ns[max(0, segment - WINDOW + 1): segment + WINDOW + 1]
        return REFERENCE_MS * 1e6 / statistics.median(near)
