"""Host-speed probe: a fixed kernel, timed between jobs.

On a small shared host the speed at which one process runs drifts by up to
1.5x within a minute, with load that the process cannot see.  A pass time
divided by the time of a fixed kernel measured right around it cancels
most of that drift.  The kernel touches no heatbayes code and no BLAS:
interpreter work, elementwise math and normal draws on cache-sized arrays,
reductions and sorts on mid-size arrays, a read through a 64 MB array, and
fills of fresh 8 MB anonymous mappings, which fault their pages in anew
each time, as the large arrays of `rough` do.  Its inputs are fixed, so it
does the same work in every run.  `run.py` reads peak memory before it
makes the probe.

`run.py` reports passes and setup probes in reference seconds: wall
seconds times REFERENCE_S / (mean probe time around them).  REFERENCE_S is
a fixed scale, close to the probe's time between jobs on the 2-core host
where the baseline was measured (0.09 s to 0.12 s, by workload), so there
reference seconds come out near wall seconds.  A change to heatbayes moves
the pass time and not the probe, so it moves the metric one for one.
"""

from __future__ import annotations

import mmap
import time

import numpy as np

# about the probe's seconds on the baseline host (2 vCPU Xeon, numpy 2.4.6)
REFERENCE_S = 0.1
# kernel repetitions per probe
REPEATS = 2
# a probe is taken after a job once this long has passed since the last one
EVERY_S = 1.0
FRESH_BYTES = 8 << 20
FRESH_MAPS = 2


class HostSpeed:
    def __init__(self):
        gen = np.random.default_rng(0)
        self._small = gen.standard_normal(1 << 15)
        self._mid = gen.standard_normal((64, 4096))
        self._big = np.full(1 << 23, 0.5)
        self.samples: list[float] = []
        self._at = time.perf_counter()

    def _kernel(self) -> float:
        acc = 0
        for i in range(20000):
            acc += i ^ (i >> 3)
        for k in range(10):
            acc += float(np.sin(self._small).sum())
            acc += float(np.random.default_rng(k).standard_normal(1 << 15)[0])
        for _ in range(3):
            acc += float((self._mid * self._mid).sum(axis=0)[0])
            acc += float(np.sort(self._mid, axis=1)[0, 0])
        acc += float(self._big.sum())
        for _ in range(FRESH_MAPS):
            with mmap.mmap(-1, FRESH_BYTES) as fresh:
                pages = np.frombuffer(fresh, dtype=float)
                pages.fill(0.5)
                acc += float(pages.sum())
                del pages
        return acc

    def sample(self) -> float:
        """Seconds for REPEATS kernels; stored in `samples`."""
        t0 = time.perf_counter()
        for _ in range(REPEATS):
            self._kernel()
        self._at = time.perf_counter()
        self.samples.append(self._at - t0)
        return self.samples[-1]

    def due(self) -> bool:
        return time.perf_counter() - self._at >= EVERY_S
