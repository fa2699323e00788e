"""Machine-speed reference, so timings can be reported at one nominal speed.

The benchmark box is shared: the same numpy job runs up to a third slower
for seconds at a time when neighbours are busy. `SpeedProbe` times a fixed
numpy job (a BLAS matmul, scipy's float32 erf and a 2 MB elementwise pass,
the three kinds of work the library does) between the workload's operations,
at most once per INTERVAL_S. A sample taken from t0 to t1 is scaled by
NOMINAL_S / (median of the probes near it), i.e. reported as if the machine
ran at the nominal speed. The probe uses none of the library's
code, so a change to the library moves the scaled timings exactly as it
moves the raw ones; the report line carries the raw values too.
"""
from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np
from scipy.special import erf

NOMINAL_S = 0.003
INTERVAL_S = 0.25
WINDOW_S = 1.0


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.normal(size=(64, 256)).astype(np.float32)
        self.b = rng.normal(size=(256, 1024)).astype(np.float32)
        self.x = rng.normal(size=(65536,)).astype(np.float32)
        self.y = rng.normal(size=(512, 1024)).astype(np.float32)
        self.at: list[float] = []       # probe midpoints, increasing
        self.seconds: list[float] = []
        self.last = -1e9

    def _job(self) -> float:
        c = self.a @ self.b
        e = erf(self.x)
        z = self.y * np.float32(0.5) + np.float32(1.0)
        return float(c[0, 0] + e[0] + z.sum())

    def maybe(self) -> None:
        """Run the probe if none ran in the last INTERVAL_S."""
        now = perf_counter()
        if now - self.last < INTERVAL_S:
            return
        t0 = perf_counter()
        self._job()
        t1 = perf_counter()
        self.at.append((t0 + t1) / 2)
        self.seconds.append(t1 - t0)
        self.last = t1

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the median of the probes within max(WINDOW_S, the
        sample's own duration) of [t0, t1]."""
        if not self.seconds:
            return 1.0
        window = max(WINDOW_S, t1 - t0)
        lo = bisect.bisect_left(self.at, t0 - window)
        hi = bisect.bisect_right(self.at, t1 + window)
        if lo == hi:  # no probe close by: take the nearest one on each side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        return NOMINAL_S / statistics.median(self.seconds[lo:hi])

    def median_s(self) -> float:
        return statistics.median(self.seconds) if self.seconds else 0.0
