"""Host-speed calibration for the benchmark's timing metrics.

The shared 2-vCPU hosts this benchmark runs on change speed by up to
2.5x over tens of seconds, the same for every process in the guest, so
run-to-run differences in raw job times are mostly host drift.  A
fixed calibration kernel, independent of framelab, is timed between
jobs (outside the timed region); each job's time is scaled to the host
speed at which that kernel takes its nominal time:

    reported = raw * nominal / (mean of the kernel samples around the job)

A framelab change cannot move the kernel, so it moves the reported
times exactly as it moves the raw ones.  The raw values are printed in
the run's metadata line next to the calibrated ones.

Interpreter-bound and memory-bound work drift differently, so a
memory-bound workload adds a memory-streaming kernel to the interpreter
kernel.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

CPU_KERNEL_S = 0.001
MEMORY_KERNEL_S = 0.0012
INTERVAL_S = 0.05

_SMALL = np.arange(16.0)


def cpu_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter work and small NumPy
    calls, the two things framelab's small-matrix paths spend time on."""
    t0 = perf_counter()
    acc = 0.0
    slots = {}
    for i in range(1500):
        slots[i & 63] = acc
        acc += (i * 0.5) % 3.0
    for i in range(200):
        acc += float(np.sum(_SMALL[i & 7:] * 2.0))
    return perf_counter() - t0


class MemoryKernel:
    """Seconds taken to stream an 8 MiB array twice: larger than L2,
    well inside L3, like the Gram matrices of the mid-size Gabor frames."""

    def __init__(self):
        self._buf = np.ones(1 << 20)

    def __call__(self) -> float:
        t0 = perf_counter()
        float(self._buf.sum())
        float(self._buf.sum())
        return perf_counter() - t0


class Calibrator:
    """Kernel samples taken at most every ``INTERVAL_S`` of wall time.

    ``mark()`` before a job returns how many samples precede it; the
    job's factor then uses the mean of the last sample before it and the
    first sample after it, so drift within a run is tracked as well.
    """

    def __init__(self, memory_bound: bool):
        if memory_bound:
            memory = MemoryKernel()
            self.kernel = lambda: cpu_kernel() + memory()
            self.nominal_s = CPU_KERNEL_S + MEMORY_KERNEL_S
        else:
            self.kernel, self.nominal_s = cpu_kernel, CPU_KERNEL_S
        self.samples: list[float] = [self.kernel()]
        self._last = perf_counter()

    def mark(self) -> int:
        return len(self.samples)

    def maybe_sample(self) -> None:
        now = perf_counter()
        if now - self._last >= INTERVAL_S:
            self.samples.append(self.kernel())
            self._last = perf_counter()

    def factors(self, marks: list[int]) -> list[float]:
        """Per-job multipliers that report a raw time at calibrated speed."""
        s = self.samples
        last = len(s) - 1
        return [2.0 * self.nominal_s / (s[m - 1] + s[min(m, last)])
                for m in marks]
