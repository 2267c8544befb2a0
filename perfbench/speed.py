"""Timing that holds still on a shared host whose core changes speed.

On a shared 2-vCPU host the core runs at full speed or up to about twice as
slow, in spans from a fraction of a second to minutes, so the wall time of
the same pass moved by 2x between runs.  The slowdown is one factor for all
Python code: a Fraction loop and a dict loop timed back to back kept the
ratio of their times within 3% over a minute in which each swung by 2x, and
CPU time swung with wall time.

A Speedometer times a fixed slice of standard-library work every PERIOD_S
seconds from a SIGALRM handler inside the measured process and converts
each measured interval to reference seconds: the time it would take at the
speed where one slice takes REFERENCE_SLICE_S.  The speed of the time
between two slices is the median slice time of the 2 * WINDOW slices
around it.  The slices' own time is left out of every interval, in wall and
in reference seconds alike.  The slices run only standard-library code, so
no change to the package changes what they measure.
"""

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
WINDOW = 3
# the slice's time at full speed on the machine the benchmark was written
# on (10th percentile of 2000 slices); it fixes the unit, not the spread
REFERENCE_SLICE_S = 0.0014


def work_slice():
    """A fixed mix of Fraction arithmetic and dict and int churn."""
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(1, i % 31 + 1)
    d = {}
    for i in range(3000):
        k = (i * 7919) % 211, i & 7
        d[k] = d.get(k, 0) + i
    return s, len(d)


class Speedometer:
    def __init__(self):
        self.slices = []        # (start, end) of each slice
        self.busy = False
        self.speed = None

    def _sample(self, *_):
        if self.busy:
            return
        self.busy = True
        collect = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        work_slice()
        self.slices.append((t, time.perf_counter()))
        if collect:
            gc.enable()
        self.busy = False

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        times = [e - s for s, e in self.slices]
        # speed[k]: slice time of the gap between slice k and slice k + 1
        self.speed = [statistics.median(
            times[max(0, k - WINDOW + 1):k + WINDOW + 1])
            for k in range(len(times) - 1)]
        self.ends = [e for _, e in self.slices]

    def measure(self, t0, t1):
        """(wall seconds, reference seconds) of [t0, t1] outside the
        slices; call after stop()."""
        wall = ref = 0.0
        k = max(0, bisect.bisect_right(self.ends, t0) - 1)
        while k < len(self.speed) and self.ends[k] < t1:
            lo = max(t0, self.ends[k])
            hi = min(t1, self.slices[k + 1][0])
            if hi > lo:
                wall += hi - lo
                ref += (hi - lo) * REFERENCE_SLICE_S / self.speed[k]
            k += 1
        return wall, ref
