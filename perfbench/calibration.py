"""Host-speed calibration for the benchmark's timings.

The hosts this benchmark runs on share cores with other tenants, and
their speed drifts by up to 2x over seconds to minutes.  A fixed kernel
that does the gateway's kind of work — dict lookups over a table larger
than the core's private caches, heap pushes and pops, small numpy
reductions — is timed between epochs.  Every timing the benchmark gates
on is reported *normalized*: the measured time scaled by
``(REFERENCE_S / kernel time nearby) ** SENSITIVITY``, i.e. about the
time the work would have taken on a host where the kernel takes
``REFERENCE_S``.  A code change
moves the workload but not the kernel, so it still shows; a slower host
moves both, so it cancels.  Wall times are normalized by the kernel's
wall time and epoch CPU times by its CPU time.  Raw times are printed
next to the normalized ones.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time
from typing import Tuple

import numpy as np

#: The kernel's time on the reference host (a quiet 2-core Xeon VM with
#: CPython 3.11 and numpy 2.4).
REFERENCE_S = 0.0120

#: How much more than the kernel's the workloads' times move when the
#: host's speed changes, as an exponent: normalization scales by
#: ``(REFERENCE_S / kernel time) ** SENSITIVITY``.  Measured on the
#: reference host, whose speed swung by up to 1.9x: the log of
#: ``scenario-chain``'s median epoch CPU time against the log of the
#: kernel's, over 5-s blocks of a 300-s run, has slope 1.3 (correlation
#: 0.91); across ten ``serve-steady`` runs, slow and fast, 1.16.  A code
#: change does not move the kernel, so the exponent does not scale it.
SENSITIVITY = 1.2


def speed_factor(kernel_s):
    """The normalization factor(s) for kernel time(s) ``kernel_s``."""
    return (REFERENCE_S / kernel_s) ** SENSITIVITY


class Kernel:
    """The fixed calibration kernel; :meth:`sample` times one pass."""

    def __init__(self) -> None:
        rng = random.Random(1995)
        self._table = {key: float(key) for key in range(100_000)}
        self._keys = [rng.randrange(100_000) for _ in range(20_000)]
        self._heap = [(rng.random(), index) for index in range(20_000)]
        heapq.heapify(self._heap)
        self._array = np.random.default_rng(1995).random(20_000)

    def sample(self) -> Tuple[float, float]:
        """Time one pass; returns its (wall, CPU) seconds."""
        began = time.perf_counter()
        began_cpu = time.process_time()
        table = self._table
        total = 0.0
        for key in self._keys:
            total += table[key]
        heap = self._heap
        for _ in range(3_000):
            priority, index = heapq.heappop(heap)
            heapq.heappush(heap, (priority + 1.0, index))
        array = self._array
        for _ in range(20):
            total += float(array.sum())
            np.flatnonzero(array > 0.5)
        return time.perf_counter() - began, time.process_time() - began_cpu

    def factor(self, samples: int = 5) -> float:
        """:func:`speed_factor` of the median wall time of ``samples``
        fresh passes."""
        return speed_factor(statistics.median(
            self.sample()[0] for _ in range(samples)
        ))


def rolling_factors(positions, kernel_s, count: int, width: int = 5):
    """Per-epoch normalization factors from kernel samples.

    ``positions[j]`` is the number of epochs timed before kernel sample
    ``j``.  Epoch ``i`` takes the median of the ``width`` samples nearest
    to it, so a few seconds of contention are tracked without letting
    one noisy sample decide.
    """
    positions = np.asarray(positions)
    kernel_s = np.asarray(kernel_s, dtype=float)
    half = width // 2
    smoothed = np.array([
        np.median(kernel_s[max(0, j - half): j + half + 1])
        for j in range(kernel_s.size)
    ])
    nearest = np.clip(
        np.searchsorted(positions, np.arange(count), side="right") - 1,
        0, kernel_s.size - 1,
    )
    return speed_factor(smoothed[nearest])
