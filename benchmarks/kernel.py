"""Reference kernel that turns wall time into machine-speed-corrected time.

The machine is shared, and its speed swings by up to 2x between regimes
that last a tenth of a second to a few seconds.  A fixed piece of work that
never calls sectorlab runs next to the timed work throughout a run: a
hand-written pivoted elimination of a 4x4 complex matrix, which mixes
interpreter work with small numpy array operations as sectorlab's per-node
inverses and Jacobi sweeps do.  Its duration tracks theirs with slope 1.0
(log-log, over regimes); np.linalg calls were left out of it because they
slow down more than sectorlab's code does when the machine gets busy.

`SpeedMeter` runs the kernel from an interval timer every SAMPLE_EVERY_S
seconds, in the main thread between bytecodes, so operations that last a
second are sampled inside as well as around.  An interval is charged its
wall time minus the time the samples inside it took, and converted to
reference seconds as  work * NOMINAL_S / k,  where k is the mean kernel
duration over the samples inside the interval and the two on either side:
the time the work would have taken on a machine where the kernel takes
exactly NOMINAL_S.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

#: the reference machine's kernel duration, a fixed constant: on the 2-core
#: x86-64 container the benchmark was tuned on (numpy 2.4, single-threaded
#: OpenBLAS) the kernel took 0.23-0.6 ms across speed regimes, median 0.36 ms.
NOMINAL_S = 3.0e-4

#: period of the sampling timer
SAMPLE_EVERY_S = 0.025

_ROUNDS = 6
_M = (np.arange(16, dtype=float).reshape(4, 4) % 5 + 1.0) + 1j * np.eye(4) + 4.0 * np.eye(4)


def kernel_once() -> float:
    """Pivoted elimination of a 4x4 complex matrix, a few times over."""
    acc = 0.0
    for r in range(_ROUNDS):
        lu = _M + (0.01 * r) * np.eye(4)
        for k in range(4):
            piv = k + int(np.argmax(np.abs(lu[k:, k])))
            if piv != k:
                lu[[k, piv]] = lu[[piv, k]]
            lu[k + 1:, k] /= lu[k, k]
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
        acc += abs(lu[3, 3])
    return acc


class SpeedMeter:
    """Kernel samples along a run, and the correction for any interval.

    Use as a context manager: sampling runs while the block runs.
    """

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        #: wall time spent in samples so far; intervals subtract their share
        self.stolen = 0.0
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        kernel_once()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.durations.append(t1 - t0)
        self.stolen += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def settle(self, samples: int = 8) -> None:
        """Wait until the run has a few samples to correct against."""
        target = len(self.durations) + samples
        while len(self.durations) < target:
            kernel_once()

    def timed(self, fn, *args):
        """Run fn(*args); return (result, t0, t1, wall time not spent sampling)."""
        s0 = self.stolen
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        return out, t0, t1, (t1 - t0) - (self.stolen - s0)

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the mean kernel duration around [t0, t1].

        The work slows by the time average of the machine's slowdown, so the
        samples are averaged, not their median taken; each is first clipped
        to within 2x of the window's median, since a sample that was itself
        interrupted says nothing about the interval around it.
        """
        lo = bisect.bisect_right(self.times, t0)
        hi = bisect.bisect_left(self.times, t1)
        window = self.durations[max(lo - 2, 0):hi + 2]
        mid = statistics.median(window)
        return NOMINAL_S / statistics.fmean(min(max(d, mid / 2), 2 * mid) for d in window)

    def raw_rate(self) -> float:
        """Kernel runs per second over the whole run (median sample)."""
        return 1.0 / statistics.median(self.durations)
