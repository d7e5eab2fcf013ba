"""Host-speed correction for timings taken on a shared machine.

On the machine the bounds were set on, the same trmod work ran up to
twice as slow for stretches of seconds to minutes while CPU time stayed
equal to wall time: the host, shared with other tenants, slows down.  So every
timing is paired with nearby runs of a fixed reference computation, and
reported at reference speed: raw seconds times REF_S over the median
duration of the reference samples within WINDOW_S of it.  A change to
trmod cannot change the reference, which uses no trmod code; it mixes
the same kinds of work as trmod's kernels (element loops over small
int64 arrays, einsum, small reductions).
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REF_S = 0.0015      # the reference's duration at the speed figures are scaled to
WINDOW_S = 3.0      # reference samples within this distance correct a timing
EVERY_S = 0.1       # least gap between reference samples in a loop or set-up

_A = np.random.default_rng(12345).integers(0, 3, (12, 24))
_T = np.random.default_rng(54321).integers(0, 3, (6, 6, 6))


def reference():
    """Fixed work: an RREF over F_3 by element loops, then einsum products."""
    A = _A.copy()
    m, n = A.shape
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if A[i, c] != 0), -1)
        if piv < 0:
            continue
        A[[r, piv]] = A[[piv, r]]
        if A[r, c] != 1:
            for j in range(n):
                A[r, j] = A[r, j] * 2 % 3
        for i in range(m):
            if i != r and A[i, c] != 0:
                f = 3 - A[i, c]
                for j in range(n):
                    A[i, j] = (A[i, j] + f * A[r, j]) % 3
        r += 1
    for k in range(40):
        np.einsum("i,ikj->kj", _T[k % 6, 0], _T) % 3
    return r


class HostClock:
    """Reference samples over a run and the speed factor around a moment."""

    def __init__(self):
        self.mid = []   # sample midpoints, increasing
        self.dur = []
        self.last = float("-inf")
        self.spent = 0.0  # total time taken by samples

    def sample(self, count=1):
        for _ in range(count):
            t0 = time.perf_counter()
            reference()
            t1 = time.perf_counter()
            self.mid.append((t0 + t1) / 2)
            self.dur.append(t1 - t0)
            self.spent += t1 - t0
        self.last = self.mid[-1]

    def maybe_sample(self):
        if time.perf_counter() - self.last >= EVERY_S:
            self.sample()

    def factor(self, t0, t1):
        """Host slowness over [t0, t1] relative to reference speed."""
        lo = bisect.bisect_left(self.mid, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.mid, t1 + WINDOW_S)
        if lo == hi:  # no sample close by: use the nearest one
            k = min(max(lo, 0), len(self.mid) - 1)
            lo, hi = k, k + 1
        return statistics.median(self.dur[lo:hi]) / REF_S

    def scaled(self, t0, t1):
        """Duration t1 - t0 in seconds at reference speed."""
        return (t1 - t0) / self.factor(t0, t1)
