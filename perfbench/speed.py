"""Correction of CPU-bound timings for the host's speed drift.

On a shared VM the speed of CPU-bound Python and small-matrix numpy code
drifts by tens of percent within minutes, while nothing in the guest shows
it (no steal time, fixed clock rate, CPU time tracks wall time).  Measured
on the 2-core Xeon VM this benchmark was sized on: a fixed 40x40 power-
iteration loop took between 0.57 and 1.01 s per 0.75 s sample over three
minutes, and identical 25 s runs of the comparison study read from 17 to
27 s.  Dense products with the 529x4000 matrix, which are bound by memory
traffic, stayed within a few percent over the same minutes, and dividing
them by this probe made them noisier.

A :class:`SpeedProbe` times a fixed CPU-bound kernel (the same kind of small
Gram matvec and norm that dominate a FISTA iteration) between pieces of the
timed body, at most every ``GAP_NS``.  A piece of the body that lies between
two probes is rescaled by ``NOMINAL_NS / mean(probe before, probe after)``,
i.e. reported in seconds at the speed where one probe takes ``NOMINAL_NS``.
Probe time itself is excluded from both raw and corrected times.
"""

from __future__ import annotations

from bisect import bisect_right
from time import perf_counter_ns

import numpy as np

NOMINAL_NS = 10_000_000
ITERS = 2000
GAP_NS = 200_000_000


class SpeedProbe:
    def __init__(self):
        b = np.random.default_rng(0).standard_normal((50, 40))
        self._gram = b.T @ b / 50.0
        self.starts: list = []
        self.ends: list = []

    def run(self) -> int:
        """Time one probe; returns its duration in ns."""
        gram = self._gram
        x = np.ones(gram.shape[0])
        t0 = perf_counter_ns()
        for _ in range(ITERS):
            x = gram @ x
            x /= np.linalg.norm(x)
        t1 = perf_counter_ns()
        self.starts.append(t0)
        self.ends.append(t1)
        return t1 - t0

    def maybe(self) -> None:
        """Probe if ``GAP_NS`` has passed since the last probe ended."""
        if not self.ends or perf_counter_ns() - self.ends[-1] >= GAP_NS:
            self.run()

    def _factor(self, k: int) -> float:
        """Speed factor of the gap between probe ``k`` and probe ``k + 1``."""
        before = self.ends[k] - self.starts[k]
        after = self.ends[k + 1] - self.starts[k + 1]
        return 2.0 * NOMINAL_NS / (before + after)

    def corrected(self, t0: int, t1: int) -> tuple:
        """(raw, corrected) seconds of ``[t0, t1]`` without the probes inside it.

        The interval must start after the first probe and end before the last.
        """
        if not (self.ends and self.ends[0] <= t0 <= t1 <= self.starts[-1]):
            raise ValueError("interval is not bracketed by probes")
        raw = corr = 0
        k = bisect_right(self.ends, t0) - 1
        while k + 1 < len(self.starts) and self.ends[k] < t1:
            lo, hi = max(t0, self.ends[k]), min(t1, self.starts[k + 1])
            if hi > lo:
                raw += hi - lo
                corr += (hi - lo) * self._factor(k)
            k += 1
        return raw * 1e-9, corr * 1e-9

    def median_factor(self) -> float:
        return float(np.median([self._factor(k) for k in range(len(self.starts) - 1)]))
