"""Machine-speed calibration for the timed phase.

The benchmark runs on a few vCPUs shared with other tenants, where the same
pure-Python loop runs up to about 1.8 times slower for a second or for
minutes at a time.  Raw times of two runs of the same code then differ by
more than any useful bound.  So while it runs, a timer interrupts the
benchmark every `INTERVAL` seconds, wherever it is (inside an op too), to
time a fixed kernel: a calibration point.  An op's time is its wall time
less the time spent in those interruptions, divided by the machine's
slowdown while it ran: the kernel's time over its reference time
(`REFERENCE_S`), averaged over the points taken during the op and just
around it.

The kernels are the benchmark's own code and never call the program, so a
faster program still reads faster.  Each repeats, on fixed data, the
primitives a workload spends its time in, so that it slows down with the
machine as that workload does: `mixed` (numpy scalar lookups inside list
comprehensions, a Python union-find, tuple vector sums, numpy row
reductions) for the interpreter-bound workloads, and `table_passes` (an
n x n pass of lattice construction: broadcast `&`, `np.where`, `argmax`)
for `build`, whose numpy passes slow down far less than interpreter code
when the machine is busy.
"""

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.2       # seconds between calibration points
REPEATS = 3          # kernel runs per point; the median drops a cold first run

_BITS = 6
_N = 1 << _BITS
_LEQ = np.array([[(a & b) == a for b in range(_N)] for a in range(_N)])
_MEET = np.array([[a & b for b in range(_N)] for a in range(_N)])
_JOIN = np.array([[a | b for b in range(_N)] for a in range(_N)])
_COVERS = [(a, a | 1 << i) for a in range(_N) for i in range(_BITS) if not a >> i & 1]
_ROWS = np.arange(64 * 512, dtype=np.int64).reshape(64, 512) * 7919 % 1009
_VECTORS = [tuple((i * j) % 5 for j in range(40)) for i in range(120)]
_TABLE_N = 512
_TABLE_POS = np.arange(_TABLE_N)
_TABLE_LEQ = (_TABLE_POS[:, None] & _TABLE_POS) == _TABLE_POS[:, None]   # boolean:9


def _le(a, b):
    return bool(_LEQ[a, b])


def _lookups():
    acc = 0
    for lo in range(12):
        hi = _N - 1 - lo % 3
        acc += len([(p, q) for p, q in _COVERS if _le(lo, p) and _le(q, hi)])
    return acc


def _union_find():
    parent = list(range(_N))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(_N):
        for b in range(1, _N, 6):
            ra, rb = find(int(_MEET[a, b])), find(int(_JOIN[a, b]))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    return len({find(x) for x in range(_N)})


def _vector_sums():
    total = _VECTORS[0]
    out = []
    for v in _VECTORS:
        total = tuple(x + y for x, y in zip(total, v))
        out.append(sum(1 for x in total if x > 0))
    return len(out)


def _row_reductions():
    return sum(int(row.argmax()) for _ in range(16) for row in _ROWS)


def mixed():
    return _lookups() + _union_find() + _vector_sums() + _row_reductions()


def table_passes():
    low = _TABLE_LEQ[:, 1, None] & _TABLE_LEQ
    return int(np.where(low, _TABLE_POS[:, None], -1).argmax(axis=0)[0])


# Each kernel's reference time, a fixed scale never measured at run time:
# its median time inside the baseline's runs (baseline.json), so that a
# calibrated time reads as seconds at the machine speed typical of them.
REFERENCE_S = {mixed: 0.0031, table_passes: 0.0033}


class Calibrator:
    """Calibration points taken by a timer signal while it runs (use it as a
    context manager, in the main thread)."""

    def __init__(self, kernel=mixed):
        self.kernel, self.reference = kernel, REFERENCE_S[kernel]
        self.times, self.kernels = [], []   # per point, in time order
        self.spent = 0.0                    # seconds spent taking points
        kernel()

    def slowdowns(self):
        return [k / self.reference for k in self.kernels]

    def point(self, *_):
        t0 = time.perf_counter()
        runs = []
        for _ in range(REPEATS):
            k0 = time.perf_counter()
            self.kernel()
            runs.append(time.perf_counter() - k0)
        now = time.perf_counter()
        self.times.append(now)
        self.kernels.append(statistics.median(runs))
        self.spent += now - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.point)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.point()

    @contextlib.contextmanager
    def paused(self):
        """No points inside, one on each side: for a child process that runs
        on this CPU while this one waits, which a point would slow down and
        be slowed down by."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.point()
        try:
            yield
        finally:
            self.point()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def slowdown(self, start, end):
        """The machine's slowdown over [start, end]: the harmonic mean of the
        kernel's time over its reference at the points taken within
        `INTERVAL` of it.  Harmonic, because work done is time divided by
        slowdown, summed over the points.  Falls back to the nearest point
        when none is that close."""
        lo = bisect.bisect_left(self.times, start - INTERVAL)
        hi = bisect.bisect_right(self.times, end + INTERVAL)
        near = self.kernels[lo:hi]
        if not near:
            i = min(bisect.bisect_left(self.times, start), len(self.times) - 1)
            if i > 0 and start - self.times[i - 1] < self.times[i] - end:
                i -= 1
            near = [self.kernels[i]]
        return statistics.harmonic_mean(near) / self.reference
