"""Host speed probe: scales measured times to a reference host speed.

The hosts this benchmark was tuned on switch, for seconds to minutes at a
time, between speeds up to 1.8x apart (a shared machine), so raw times of
one run differ from the next by as much.  A calibration kernel with the
package's cost profile in miniature is timed alongside the measurement;
a time t measured while the kernel takes k microseconds is reported as
t * CAL_REF_US / k, the time on a host on which the kernel takes
CAL_REF_US.  Raw times are reported next to the scaled ones.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

CAL_REF_US = 50.0
REPS = 5                 # a probe is the fastest of REPS kernel runs
PERIOD_S = 0.02          # one probe per period while a run measures
WINDOW_NS = 200_000_000  # probes up to this long before a pass count for it


def kernel():
    # Python calls and float arithmetic, 0-d and small numpy arrays, and
    # one small eigensolve, as in the bounds, the optimizer and the oracles
    x = 0.0
    for i in range(8):
        a = np.asarray(0.5 + i, dtype=float)
        b = np.log1p(np.atleast_1d(a))
        x += float(b[0]) + math.log1p(i) * 0.5
    m = np.eye(4) * 1.5 + 0.1
    return x + float(np.linalg.eigvals(m @ m.T)[0].real)


def probe_ns():
    """Fastest of REPS kernel runs, so that an interrupt or a wait for the
    interpreter lock in one of them does not count."""
    best = None
    for _ in range(REPS):
        t = time.perf_counter_ns()
        kernel()
        t = time.perf_counter_ns() - t
        best = t if best is None or t < best else best
    return best


def factor_now(samples=9):
    """CAL_REF_US over the median of `samples` probes, taken now."""
    for _ in range(3):
        kernel()
    return CAL_REF_US * 1e3 / statistics.median(probe_ns() for _ in range(samples))


class Probe:
    """Probes the host every PERIOD_S from a timer signal on the measuring
    thread while the `with` block runs.  An operation's time excludes the
    probes that ran inside it (``own_ns``) and is scaled by ``factor`` of
    its pass."""

    def __init__(self):
        self.starts, self.ends, self.kernel_ns = [], [], []

    def _sample(self, signum, frame):
        t0 = time.perf_counter_ns()
        self.kernel_ns.append(probe_ns())
        self.starts.append(t0)
        self.ends.append(time.perf_counter_ns())

    def __enter__(self):
        for _ in range(20):  # warm the kernel's code paths
            kernel()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def own_ns(self, t0, t1):
        """Time the probes themselves took inside [t0, t1]."""
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return sum(self.ends[k] - self.starts[k] for k in range(i, j))

    def factor(self, t0, t1):
        """CAL_REF_US over the kernel's time in [t0 - WINDOW_NS, t1]: the
        mean of the per-probe ratios without their top and bottom tenth."""
        i = bisect.bisect_left(self.starts, t0 - WINDOW_NS)
        j = bisect.bisect_left(self.starts, t1)
        ratios = sorted(CAL_REF_US * 1e3 / self.kernel_ns[k] for k in range(i, j))
        if not ratios:
            return factor_now()
        cut = len(ratios) // 10
        kept = ratios[cut:len(ratios) - cut]
        return sum(kept) / len(kept)
