"""The benchmark's clock, and the machine-speed reference its times are scaled by.

Every duration is read from `clock`, the CPU time of this process. The
library is single-threaded and the benchmark runs BLAS on one thread, so for
it CPU time is wall time minus the time the process was not running. On a
shared virtual machine that time is mostly steal, the vCPU being given to
other guests, which swung wall times by 2-4x from minute to minute.

CPU time still moved by 30-40% between runs a minute apart on the 2-vCPU
machine the bounds were set on, because the host's load changes how fast a
vCPU runs. So a run also times a fixed reference computation, written here
and not in the library, between its phases, and every time it reports is
scaled by `REFERENCE_SECONDS` over the median of those timings: it reads as
the time on that machine at the reference's usual speed. Over 150 s of
alternating reference and queries, the quartile spread of ten 15 s windows
was 0.14 for raw query times and 0.04 for scaled ones.
"""

from __future__ import annotations

import heapq
import statistics
import time

import numpy as np

clock = time.process_time

# CPU seconds one `SpeedReference.measure` takes on that machine, usually
REFERENCE_SECONDS = 0.034


class SpeedReference:
    """A fixed mix of the work the library does: heap pushes of tuples and
    binary searches from Python, like query scheduling, and a projection with
    an argmax over 10 000 x 32 points, like hashing."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._sorted = np.sort(rng.integers(0, 1000, 10_000))
        self._small = rng.normal(size=(64, 32))
        self._points = rng.normal(size=(10_000, 32))
        self._rotation = rng.normal(size=(32, 32))
        self.samples: list[float] = []

    def measure(self) -> None:
        t0 = clock()
        heap: list = []
        for i in range(6000):
            heapq.heappush(heap, ((i * 7919) % 1000, (i, i + 1)))
            np.searchsorted(self._sorted, i % 1000)
            if i % 10 == 0:
                self._small @ self._small[0]
        for _ in range(3):
            np.argmax(np.abs(self._points @ self._rotation), axis=1)
        self.samples.append(clock() - t0)

    def scale(self) -> float:
        """Factor that turns this run's CPU times into reference-speed times."""
        return REFERENCE_SECONDS / statistics.median(self.samples)
