"""Machine-speed calibration for timings taken on a shared machine.

On the small shared machine this benchmark was defined on, the same
eigenvalue search takes anywhere from 80 to 170 ms, in phases that last from
seconds to minutes, with CPU time equal to wall time: the speed of the
machine itself changes, not the scheduling.  Averaging within a run cannot
remove phases longer than the run, so every timing is also divided by the
machine's speed at that moment, measured with a fixed kernel that does the
same kind of work as the solver (a frozen copy of the RK4 propagator's
operation mix) and that no change to barmodes can alter.

A timing scaled this way reads as the time on a machine where the kernel
takes NOMINAL_MS; raw timings are kept in the run record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_MS = 4.0   # the kernel's usual time on the machine this was defined on
RADIUS = 2         # extra samples on each side of a window
KERNEL_STEPS = 48


def _propagator(k1, k2, h, steps):
    """One fixed-step RK4 propagator of a 4x4 constant-coefficient system:
    the operation mix (small arrays, Taylor terms, a matrix power, a
    finiteness check) of the solver this benchmark times."""
    A = np.array([[0.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0],
                  [k1, -k2, 0.0, 0.0],
                  [k2, k1, 0.0, 0.0]])
    hA = h * A
    step = np.eye(4)
    term = np.eye(4)
    for j in (1, 2, 3, 4):
        term = term @ hA / j
        step = step + term
    G = np.linalg.matrix_power(step, steps)
    if not np.all(np.isfinite(G)) or np.max(np.abs(G)) > 1e150:
        raise OverflowError("calibration kernel overflowed")
    return G


def kernel(n=KERNEL_STEPS):
    """Fixed work: n propagators over an eighth of the bar, composed."""
    G = np.eye(4)
    for k in range(n):
        G = _propagator(-0.1 - 1e-3 * k, 0.01, 1.0 / 2000.0, 250) @ G
    return G


class Clock:
    """Calibration samples taken between timed operations.

    ``samples`` holds kernel times in ms; ``spent`` is the wall time the
    sampling itself took, which callers subtract from enclosing timings.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.sample()

    def sample(self):
        """Median of three short kernel runs, scaled to one full kernel."""
        start = time.perf_counter()
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            kernel(KERNEL_STEPS // 3)
            runs.append(time.perf_counter() - t0)
        self.samples.append(statistics.median(runs) * 3e3)
        self.spent += time.perf_counter() - start

    def mark(self) -> int:
        """Index of the latest sample; a window opened before an operation
        runs from it to the sample taken after."""
        return len(self.samples) - 1

    def slowdown(self, first: int, last: int) -> float:
        """Machine slowdown relative to nominal over samples first..last,
        widened by RADIUS samples each side.  A mean, not a median: the
        machine flickers between a fast and a slow state faster than one
        operation lasts, and the operation's time follows the share of time
        spent in each, which the mean of regular samples estimates."""
        window = self.samples[max(0, first - RADIUS):last + RADIUS + 1]
        return statistics.fmean(window) / NOMINAL_MS
