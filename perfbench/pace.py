"""Machine pace: how fast this machine runs right now, from a fixed loop.

On a shared host the speed of one core drifts by up to a factor of two
over seconds to minutes (measured on a 2-vCPU Intel Xeon VM: the same
verdict took 5.3 s in one run and 9.6 s in another).  No length of run
averages that away, so every verdict time the benchmark bounds is divided
by the pace measured while it ran: the time a reference loop takes, over
the time it takes at nominal speed.  A slower program still reads slower;
a slower machine reads much less so (ten-run spreads fell from 0.09-0.13
to about 0.06).  Raw wall times are printed beside the paced ones.
Set-up time is not paced: a process start is too short and too bound to
the file system for the loop to track it.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_ITERATIONS = 100_000
# seconds the reference loop takes at nominal speed, on the machine above
REF_NOMINAL_S = 0.004
SAMPLE_INTERVAL_S = 0.25


def reference_s():
    """Time one run of the reference loop: integer work, no allocation of
    container objects, so it never triggers the garbage collector."""
    t0 = time.perf_counter()
    s = 0
    for j in range(REF_ITERATIONS):
        s ^= j
    return time.perf_counter() - t0


class Sampler:
    """Times the reference loop every SAMPLE_INTERVAL_S of wall time from
    a SIGALRM handler while it is entered (about 1.6% of the time)."""

    def __init__(self):
        self.samples = []   # (start, seconds the loop took)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append((t0, reference_s()))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def busy(self, t0, t1):
        """Seconds of [t0, t1] not spent in the sampler."""
        return (t1 - t0) - sum(d for t, d in self.samples if t0 <= t <= t1)

    def pace(self, t0, t1):
        """Mean pace over [t0, t1], or of the samples either side of it
        when none fell inside."""
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        if not inside:
            inside = [d for t, d in self.samples if t < t0][-1:] + \
                [d for t, d in self.samples if t > t1][:1]
        return statistics.fmean(inside) / REF_NOMINAL_S
