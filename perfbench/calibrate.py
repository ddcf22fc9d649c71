"""Host-speed calibration: a fixed kernel timed throughout the benchmark's rounds.

The shared 2-vCPU hosts this benchmark runs on change speed in phases of
seconds to tens of seconds: the same census gate takes 83 ms in one phase and
155 ms in the next, with process CPU time rising alongside wall time.  A
run cannot outlast such a phase, so its raw times depend on when it ran.

:class:`Calibrator` times a fixed kernel that does the same kinds of work as
ctckit (interpreted Python, and small complex-matrix numpy and LAPACK calls)
and is not part of the package under test.  While it is entered it samples
the kernel every ``PERIOD_S`` seconds, from a ``SIGALRM`` handler in the
benchmark's own thread, so a sample can fall inside an operation.  For any
interval it gives the time its samples took within the interval, which the
benchmark subtracts, and the ratio of the kernel's reference time to its
time measured around the interval.  A timing scaled by that ratio is the time
at the reference speed, at which the kernel takes ``REFERENCE_MS``; the raw
timings are reported alongside.
"""

import bisect
import signal
import statistics
import time

import numpy as np

# Kernel time at the reference speed: about its median on the 2-vCPU x86-64
# virtual machine the first baseline was taken on.
REFERENCE_MS = 4.0
# Kernel repetitions per sample; a sample reports their median.
REPEATS = 3
# Interval between samples while a Calibrator is entered.
PERIOD_S = 0.3


def _matrices():
    rng = np.random.default_rng(20091017)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    r = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    s = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return a, r @ r.conj().T, s @ s.conj().T


_A, _R, _S = _matrices()


def kernel():
    """Fixed work of about 4 ms at the reference speed; returns a checksum."""
    acc = 0.0
    table = {}
    for i in range(6000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        acc += table[i % 97] % 7.0
    w = _A
    for _ in range(40):
        u = w @ np.kron(_R, _S) @ w.conj().T
        pt = np.einsum("aiaj->ij", u.reshape(4, 2, 4, 2))
        sv = np.linalg.svd(u, compute_uv=False)
        acc += float(sv[0].real) * 1e-9 + float(np.trace(pt).real) * 1e-12
        w = _A / (1.0 + float(sv[-1]))
    return acc


class Calibrator:
    """Kernel samples over the run: when each began and ended, and its time.

    ``with cal:`` samples once on entry, every ``PERIOD_S`` while inside and
    once on exit, so every interval inside has a sample before and after it.
    """

    def __init__(self):
        self.begins = []
        self.stamps = []
        self.kernel_ms = []
        self._sampling = False
        kernel()

    def sample(self):
        if self._sampling:
            return
        self._sampling = True
        begin = time.perf_counter()
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            times.append(1e3 * (t1 - t0))
        self.begins.append(begin)
        self.stamps.append(t1)
        self.kernel_ms.append(statistics.median(times))
        self._sampling = False

    def _on_alarm(self, signum, frame):
        self.sample()

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def busy(self, start, end):
        """Seconds of ``[start, end]`` spent taking samples."""
        lo = bisect.bisect_right(self.stamps, start)
        hi = bisect.bisect_left(self.begins, end)
        return sum(min(end, self.stamps[i]) - max(start, self.begins[i]) for i in range(lo, hi))

    def factor(self, start, end):
        """Reference over measured kernel time around ``[start, end]``.

        Uses the last sample that ended by ``start``, the first that began
        at or after ``end`` and every sample in between, and their median.
        """
        lo = max(bisect.bisect_right(self.stamps, start) - 1, 0)
        hi = min(bisect.bisect_left(self.begins, end), len(self.stamps) - 1)
        return REFERENCE_MS / statistics.median(self.kernel_ms[lo:hi + 1])
