"""Scaling of measured times to a reference machine speed.

On a shared virtual machine the CPU speed itself drifts: a fixed
pure-Python loop on the reference host took from 7 to 20 ms depending on
the moment, in phases lasting from seconds to minutes, so raw run times
of one commit differ by up to 40% between runs minutes apart. A short
fixed kernel, independent of nbr2nbr, is timed before and after each
timed step. The step's time is multiplied by REFERENCE_S over the mean
of those two calibration times. A scaled time reads as seconds on the
reference host at the speed the kernel had there.

The kernel mixes what the workloads spend their time on: interpreted
Python, small float32 GEMMs and elementwise float64 array passes. It
allocates nothing while it runs, so it leaves peak RSS unchanged.
"""

from __future__ import annotations

import time

import numpy as np

# Median calibration kernel time on the reference host (Intel Xeon,
# 2 vCPUs, Python 3.11, OpenBLAS 0.3.31 pinned to 1 thread).
REFERENCE_S = 0.023


class Kernel:
    """The fixed calibration work; run() returns its wall time."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.random((4096, 48), dtype=np.float32)
        self.w = rng.random((48, 48), dtype=np.float32)
        self.o = np.empty((4096, 48), dtype=np.float32)
        self.b = rng.random(1 << 16)
        self.c = np.empty_like(self.b)

    def run(self) -> float:
        t0 = time.perf_counter()
        s = 0
        for i in range(50_000):
            s += i * i
        for _ in range(40):
            np.matmul(self.a, self.w, out=self.o)
        for _ in range(60):
            np.multiply(self.b, self.b, out=self.c)
            np.add(self.c, 1.0, out=self.c)
            np.sqrt(self.c, out=self.c)
        return time.perf_counter() - t0


class Scaler:
    """Times steps and scales each to the reference speed. Disabled, it
    returns raw times and runs no kernel."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.kernel = Kernel() if enabled else None
        self.before: float | None = None
        self.calibrations: list[float] = []

    def _calibrate(self) -> float:
        c = self.kernel.run()
        self.calibrations.append(c)
        return c

    def start(self) -> None:
        """Calibrate now unless the last step ended with a calibration."""
        if self.enabled and self.before is None:
            self.before = self._calibrate()

    def stop(self, raw_s: float) -> float:
        """Calibrate after a step of raw_s seconds; return it scaled."""
        if not self.enabled:
            return raw_s
        after = self._calibrate()
        factor = REFERENCE_S / ((self.before + after) / 2.0)
        self.before = after
        return raw_s * factor

    def interrupt(self) -> None:
        """Untimed work follows; the next step calibrates afresh."""
        self.before = None

    def step(self, fn, *args, **kwargs):
        """Run fn; returns (result, raw seconds, scaled seconds)."""
        self.start()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        return out, raw, self.stop(raw)
