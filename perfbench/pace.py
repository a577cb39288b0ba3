"""The machine's pace, sampled between the operations of a run.

The benchmark runs on a share of a host that other work also uses, and the
host's speed changes for seconds to minutes at a time (README.md,
Steadiness).  So a run times a fixed piece of work, the calibration unit,
between its operations, and rescales each operation to the reference pace:
its time, times ``REFERENCE_S``, over the median time of the calibration
units run within ``WINDOW_S`` of it.  The unit is plain Python and
small-array NumPy, the two kinds of work the program's kernels do, and calls
no code of the program, so no change to the program can move it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Time of one calibration unit at the reference pace: a round figure near
#: its median on the machine of README.md's reference figures (1.06 ms).
REFERENCE_S = 1.0e-3
WINDOW_S = 0.5  # calibration samples this close to an operation pace it
MIN_NEAR = 5  # else the nearest samples, this many

_X = np.linspace(1.0, 2.0, 2304, dtype=np.float32)  # a 48x48 grid


def calibration_unit() -> None:
    """Interpreter work (a loop over a dict) and small-array float32 NumPy
    work (``frexp``/``ldexp``, products, selects, as an op call does)."""
    acc, table = 0, {}
    for i in range(2000):
        acc = (acc + i * i) % 1000003
        table[i & 63] = acc
    x = _X
    for _ in range(30):
        mantissa, exponent = np.frexp(x)
        x = np.ldexp(mantissa * np.float32(1.5), exponent - 1) + np.float32(0.25)
        x = np.where(x > np.float32(2.0), x * np.float32(0.5), x)


class Pace:
    """Calibration samples of one run, and the rescaling they give.

    A disabled pace (traced runs, whose spans would count the calibration
    as unattributed time) takes no samples and rescales nothing.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.starts: list = []  # perf_counter at the start of each sample
        self.seconds: list = []

    def sample(self, n: int = 1) -> None:
        if not self.enabled:
            return
        for _ in range(n):
            start = time.perf_counter()
            calibration_unit()
            self.starts.append(start)
            self.seconds.append(time.perf_counter() - start)

    def samples(self) -> list:
        return list(zip(self.starts, self.seconds))

    def extend(self, samples) -> None:
        """Add samples taken in another process (``perf_counter`` is the
        system's monotonic clock, shared by every process)."""
        merged = sorted(self.samples() + [tuple(s) for s in samples])
        self.starts = [t for t, _ in merged]
        self.seconds = [s for _, s in merged]

    def scaled(self, start: float, end: float) -> float:
        """The time from ``start`` to ``end`` at the reference pace."""
        if not self.starts:
            return end - start
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if hi - lo < MIN_NEAR:
            middle = bisect.bisect_left(self.starts, (start + end) / 2)
            lo = max(0, min(middle - MIN_NEAR // 2, len(self.starts) - MIN_NEAR))
            hi = lo + MIN_NEAR
        return (end - start) * REFERENCE_S / statistics.median(self.seconds[lo:hi])
