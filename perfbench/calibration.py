"""Machine-speed calibration of a run's times.

On a shared host the same op, run back to back in one process, takes up
to 1.7 times as long for minutes at a time while other tenants load the
machine, so the medians of two half-minute runs differ by more than any
useful regression bound.  The host's speed also changes within a second,
so a kernel timed only before and after a step says little about the
step.  So a fixed kernel that does not touch isodeform is timed every
SAMPLE_EVERY_S seconds *while* the step runs: a SIGALRM handler runs it in
the main thread between bytecodes.  The step's time leaves out the
kernel's own time.  The samples are spread evenly over the step's wall
time, so the mean of CAL_REF_S / kernel time over them is the host's mean
speed during the step, against its speed when quiet; the step's time is
scaled by that factor.  A median would jump between the host's fast and
slow spells, and a mean of kernel times would let one preempted sample
outweigh the rest.

Measured on a shared 2-core virtual machine, over 14 repeats of a 3-4 s
verify op while the host ran 1.7 times slower than when quiet: the
coefficient of variation of the op times was 0.11 as measured, 0.11-0.14
scaled by kernels timed right before and after each op, and 0.06-0.07
scaled by the median of samples taken inside each op.  Over 12 repeats of
a 6-11 s verify op: 0.20 as measured, 0.07 scaled by the median of the
samples, 0.04 by their mean speed.

The kernel has an interpreter-bound part (dict and integer work) and a
numpy-bound part (small gathers, products and segment sums), the two kinds
of work a verify op does.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# kernel time on that 2-core machine when nothing else loads it; it sets
# the scale of calibrated times.  A kernel with ten times the loops took
# 0.035 s there (the 5th percentile of 1215 runs), and this one takes 0.107
# of that kernel's time.
CAL_REF_S = 0.0037

# wall seconds between kernel samples; about 4% of a step's time on a
# quiet host goes to the kernel, and is left out of the step's time
SAMPLE_EVERY_S = 0.1


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._coef = rng.standard_normal((35, 64))
        self._ii = rng.integers(0, 35, 400)
        self._jj = rng.integers(0, 35, 400)
        self._starts = np.arange(0, 400, 12)
        self.samples: list = []

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        table = {}
        acc = 0
        for i in range(7_500):
            table[i & 1023] = acc
            acc += (i * 7) % 13
        coef, ii, jj, starts = self._coef, self._ii, self._jj, self._starts
        for _ in range(40):
            # the product stays bound until the next one exists, so the
            # allocator reuses its block instead of returning it to the OS
            prod = coef[ii] * coef[jj]
            np.add.reduceat(prod, starts, axis=0)
        return time.perf_counter() - t0

    @contextmanager
    def sampling(self):
        """Time the kernel every SAMPLE_EVERY_S seconds inside the block;
        yields the list the kernel times are appended to."""
        taken: list = []

        def sample(signum, frame):
            taken.append(self._kernel())

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield taken
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.samples += taken

    def factor(self, taken: list) -> float:
        """Multiply the time of a step during which `taken` were sampled by
        this; a step too short to be sampled gets one kernel after it."""
        if not taken:
            taken = [self._kernel()]
            self.samples += taken
        return statistics.fmean(CAL_REF_S / k for k in taken)
