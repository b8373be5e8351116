"""Machine-speed calibration of the benchmark's timings.

On a shared 2-vCPU Xeon virtual machine, where the baseline in
``results/`` was recorded, the speed drifts by up to 2x over seconds to
minutes with no steal time reported: wall time and CPU time of the same op
drift together, so runs of the same code at different times spread by
20-35 % (interquartile range over median of ten runs).  A fixed kernel that
does not touch the package is timed every ``PERIOD_S`` of wall time between
ops (outside the timed region).  Its duration tracks the machine's speed at
that moment, provided it does the same kind of work as the ops, so each
workload has its own kernel.  Over two minutes in which the machine slowed
by up to 1.8x, the ratio of a figure preset to the ``cli`` kernel, and of
an interacting-pair series to the ``series`` kernel, stayed within about
5 % (interquartile range over 5 s windows), and that of a ``validate`` call
to the ``dense`` kernel within 2.4 % (19 % to the ``series`` kernel: LAPACK
on two threads slows down unlike the interpreter).

Each op latency ``t`` is reported at the reference speed as
``t * ref_ms / k``, where ``k`` is the median kernel duration among the
samples taken within ``HALF_WINDOW_S`` of the op.  ``ref_ms`` is a fixed
constant per kernel, its duration in the fast phase of that machine, so the
normalised figures read as milliseconds on it in its fast phase and stay
comparable between runs and commits.  A change to the package changes
``t`` and not ``k``.  The raw wall times are kept next to the normalised
ones in the run record.
"""

import argparse
import bisect
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.1          # wall time between kernel samples
HALF_WINDOW_S = 0.5     # samples this close to an op set its speed

_X = np.linspace(0.0, 1.0, 601)
_M = np.eye(4, dtype=complex) + 0.1j
_A = np.random.default_rng(0).standard_normal((2, 200, 200))
_H = (_A[0] + 1j * _A[1]) + (_A[0] + 1j * _A[1]).conj().T


def cli():
    """An argparse parser built and used, elementwise numpy on 601 points,
    601 CSV rows formatted, an interpreter loop and 4x4 Hermitian
    eigenvalues: the kind of work of a CLI call, without the package."""
    parser = argparse.ArgumentParser(prog="kernel")
    sub = parser.add_subparsers(dest="command")
    for i in range(6):
        command = sub.add_parser(f"c{i}")
        for j in range(6):
            command.add_argument(f"--o{j}", type=float, default=1.0, help="option")
    parser.parse_args(["c3", "--o1", "2.5"])
    x = _X
    for _ in range(40):
        x = np.sqrt(x * x + 1e-3) * 0.999
    text = "\n".join("%.12g,%.12g,%.12g" % (a, a * a, a + 1.0) for a in x.tolist())
    s = 0
    for i in range(3000):
        s += i * i % 7
    for _ in range(20):
        np.linalg.eigvalsh(_M @ _M.conj().T)
    return len(text) + s


def series():
    """An interpreter loop, elementwise numpy on 601 points and 4x4
    Hermitian eigenvalues: the kind of work of a per-point series and of
    an import, without the package."""
    s = 0
    for i in range(10000):
        s += i * i % 7
    x = _X
    for _ in range(100):
        x = np.sqrt(x * x + 1e-3) * 0.999
    for _ in range(50):
        np.linalg.eigvalsh(_M @ _M.conj().T)
    return s, x


def dense():
    """A 200 x 200 complex Hermitian eigh: the work of the oracle."""
    return np.linalg.eigh(_H)


# kernel -> its duration in ms at the reference speed
KERNELS = {cli: 2.9, series: 1.7, dense: 11.0}


def sample(kernel):
    """(time, kernel duration in ms) of one kernel run."""
    t0 = perf_counter()
    kernel()
    return t0, 1e3 * (perf_counter() - t0)


class Clock:
    """Kernel samples of one run, and the speed factor they give an op."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.ref_ms = KERNELS[kernel]
        self.times = []
        self.durations = []
        self.next_at = 0.0

    def tick(self):
        """Take a sample if ``PERIOD_S`` has passed since the last one."""
        if perf_counter() >= self.next_at:
            self.add(*sample(self.kernel))

    def add(self, t, duration_ms):
        self.times.append(t)
        self.durations.append(duration_ms)
        self.next_at = t + PERIOD_S

    def factor(self, start, end):
        """ref_ms over the median kernel duration near [start, end]; the
        nearest sample on each side counts when the window holds none."""
        lo = bisect.bisect_left(self.times, start - HALF_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + HALF_WINDOW_S)
        lo = min(lo, max(bisect.bisect_left(self.times, start) - 1, 0))
        hi = max(hi, min(bisect.bisect_right(self.times, end) + 1, len(self.times)))
        return self.ref_ms / statistics.median(self.durations[lo:hi])
