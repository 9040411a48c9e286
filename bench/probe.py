"""How fast the shared machine runs this process, sampled while it works.

The benchmark runs on a shared host whose other tenants slow it down, by
up to a factor of two for stretches of seconds to minutes, without taking
the CPU away (the process's CPU time grows as fast as its wall time).  A
Probe is a fixed piece of numpy and Python work of the same kind as
discoh's inner loops (small complex Hermitian eigendecompositions, small
matrix products, Python arithmetic), independent of discoh and of the seed.

A Sampler runs the probe from a timer signal every INTERVAL_S, in the main
thread, while the program works; run.py takes the probe's own time out of
each operation and scales what is left by REFERENCE_S over the mean of
the samples taken during it.  A slow stretch of the host slows
the probe and the program together; a change to the program moves the
program and not the probe.
"""

import bisect
import signal
import statistics
import time

import numpy as np

# The probe's time on the quiet machine this benchmark was written on: the
# scale of every time metric (any fixed value would do; this one makes the
# metrics read as that machine's seconds).
REFERENCE_S = 0.0033

INTERVAL_S = 0.1
NEAREST = 2  # fewest samples that set the scale of one operation

_REPS = 40


class Probe:
    def __init__(self):
        rng = np.random.default_rng(20140219)
        a = rng.standard_normal((16, 4, 4)) + 1j * rng.standard_normal((16, 4, 4))
        self.h = a + a.conj().transpose(0, 2, 1)

    def __call__(self):
        """Seconds the probe took."""
        h = self.h
        acc = 0.0
        start = time.perf_counter()
        for k in range(_REPS):
            _, v = np.linalg.eigh(h)
            acc += float(np.abs(v @ h @ v.conj().transpose(0, 2, 1)).sum())
            acc += sum(x * 0.5 for x in range(k % 7, 40))
        elapsed = time.perf_counter() - start
        if not acc > 0.0:
            raise RuntimeError("probe: arithmetic went wrong")
        return elapsed


class Sampler:
    """Runs a Probe every INTERVAL_S from SIGALRM and keeps (start, seconds)."""

    def __init__(self, probe):
        self.probe = probe
        self.starts = []
        self.seconds = []
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:  # a stall longer than INTERVAL_S inside the probe
            return
        self._busy = True
        start = time.perf_counter()
        self.seconds.append(self.probe())
        self.starts.append(start)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def span(self, start, end):
        """(probe seconds spent inside [start, end], scale for that span).

        The scale is REFERENCE_S over the mean of the samples taken in the
        span, widened to the NEAREST samples around it when fewer fell in.
        Samples taken in the span follow the host best: over repeated
        0.25 s calls, widening to the 8 nearest samples or taking their
        median left about twice the spread.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = sum(self.seconds[lo:hi])
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        return inside, REFERENCE_S / statistics.fmean(self.seconds[lo:hi])
