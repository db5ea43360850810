"""Reference kernel: a fixed unit of host speed to normalise timings by.

Host speed on a shared machine can drift by 2x over seconds, so raw wall
time cannot repeat to within a tenth.  The kernel is a fixed loop of the
same kinds of work tarsim spends its time on (numpy calls on scalars and
tiny arrays, pure-Python arithmetic, dict and string handling).  It is
timed at a fixed cadence of workload time, and each command's wall time is
divided by the kernel time measured just before and just after it, then
multiplied by the kernel's nominal time: the result reads as the command's
time on a host running the kernel in exactly its nominal time.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

KERNEL_REPEATS = 7  # one sample is the median of this many kernel runs


def reference_kernel(n: int = 40) -> float:
    """Fixed mixed scalar-numpy / pure-Python work; returns a checksum."""
    acc = 0.0
    table: dict = {}
    v = np.array([0.3, -0.2, 0.9])
    m = np.array([[1.0, 0.1, 0.0], [0.1, 2.0, 0.2], [0.0, 0.2, 3.0]])
    for i in range(n):
        x = 0.001 * i + 0.01
        c = np.cos(x)
        acc += float(np.sqrt(2.0 * 1.7 * 1.7 * (1.0 - c)))
        acc += float(np.arctan2(0.4, 2.6 + x))
        w = m @ v + x
        acc += float(np.linalg.norm(np.cross(w, v)))
        acc += float(np.clip(w, -1.0, 1.0).sum())
        acc += math.hypot(x, acc % 7.0)
        key = i % 23
        table[key] = f"{acc:.9f},R{key},{x!r},{float(w[0])!r}"
        fields = table[key].split(",")
        acc += sum(float(f) for f in fields[2:]) * 1e-6 + len(fields[1])
    parts = [str(k) + "=" + s for k, s in sorted(table.items())]
    acc += len(",".join(parts)) * 1e-9
    return acc


def kernel_sample() -> float:
    """Seconds for one reference-kernel sample (median of a few runs)."""
    times = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Normaliser:
    """Turns raw command wall times into nominal-speed times.

    Call ``tick(elapsed)`` before the first command and after each one,
    with the workload time spent so far: it times a kernel sample when
    ``cadence_s`` has passed since the last one.  ``add`` records a
    command in the current window; ``close`` ends the last window and sets
    ``norm_s`` on every command from the mean of the two kernel samples
    around its window.
    """

    def __init__(self, nominal_s: float, cadence_s: float):
        self.nominal_s = nominal_s
        self.cadence_s = cadence_s
        self.samples: list[float] = []
        self._windows: list[list] = []
        self._last = 0.0

    def tick(self, elapsed_s: float) -> None:
        if not self.samples or elapsed_s - self._last >= self.cadence_s:
            self.samples.append(kernel_sample())
            self._windows.append([])
            self._last = elapsed_s

    def add(self, record) -> None:
        """Record a command (any object with a ``wall_s`` attribute)."""
        self._windows[-1].append(record)

    def close(self) -> None:
        if self._windows[-1]:
            self.samples.append(kernel_sample())
            self._windows.append([])
        for k, window in enumerate(self._windows[:-1]):
            adjacent = 0.5 * (self.samples[k] + self.samples[k + 1])
            for record in window:
                record.norm_s = record.wall_s * self.nominal_s / adjacent

    def spread(self) -> float:
        """Kernel-sample spread, (p90 - p10) / median."""
        if len(self.samples) < 2:
            return 0.0
        dec = statistics.quantiles(self.samples, n=10)
        return (dec[-1] - dec[0]) / statistics.median(self.samples)
