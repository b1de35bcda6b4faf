"""Host-speed probe: times in reference-host seconds.

The host this benchmark was built on runs at a few distinct speeds that
last from a fraction of a second to minutes; a fixed pure-Python loop
swings 1.7x between them, and whole 36 s runs can sit at one speed.
Wall-clock medians then spread 20-35% from run to run, more than any
usable regression bound.

So the benchmark times a fixed reference kernel (interpreter loops, numpy
FFT/exp and many ufunc calls on tiny arrays, the kinds of work a mission
does) just before and just after every timed call, and scales the call's
wall time by ``REF_PROBE_S / mean(probe before, probe after)``.  The
kernel is the benchmark's own code, independent of ``src/``, so a change
to the program moves the scaled time exactly as it moves the wall time,
while a change of host speed moves probe and call together and mostly
cancels.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Tuple

import numpy as np

#: probe time that defines one reference-host second (the probe's time
#: on this host at its faster speeds)
REF_PROBE_S = 0.010


class HostProbe:
    """Times the reference kernel around calls to scale their wall time."""

    def __init__(self) -> None:
        self._z = np.exp(2j * np.pi * np.arange(4096) / 7.0)
        self._v = np.arange(8.0)
        self.measure()
        self.last = self.measure()

    def measure(self) -> float:
        """Wall time of one run of the reference kernel (10-25 ms here)."""
        z, v = self._z, self._v
        t0 = perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        counts: dict = {}
        for i in range(2000):
            counts[i % 97] = counts.get(i % 97, 0) + 1
        for _ in range(20):
            np.fft.ifft(np.fft.fft(z) * z)
            np.exp(z[:1024])
        # many ufunc calls on tiny arrays, like the per-symbol trellis loops
        a = v
        for _ in range(1500):
            c = np.maximum(a + v, a - v)
            a = c - c.max()
        return perf_counter() - t0

    def timed(self, fn: Callable, *args) -> Tuple[object, float, float]:
        """``(fn(*args), wall seconds, reference-host seconds)``."""
        before = self.last
        t0 = perf_counter()
        out = fn(*args)
        wall = perf_counter() - t0
        self.last = self.measure()
        return out, wall, wall * 2.0 * REF_PROBE_S / (before + self.last)
