"""Host speed, measured beside the timed work.

The reference host (2 vCPUs shared with other tenants) runs in speed phases:
a fixed Python loop runs up to about twice as slow for stretches of a few
seconds to tens of seconds, so one run's raw times can differ from the
next by a third.
Every workload therefore reports times at the reference speed,
t * (C_REF / c) ** SLOWDOWN_POWER, where c is the time ``calibrate`` took
in the timed process itself, during or right beside the timed work
(``Sampler`` in the worker, cold.py in a CLI process).  Raw times are kept
in the result files.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# Median of calibrate() on the reference host, a 2-vCPU Intel Xeon with
# Python 3.11.7; it only sets the unit, so normalised times read as seconds.
C_REF = 0.0021
# A slow phase slows the calibration more than the benchmark's work.  Over
# ten seeds of each workload, log(raw round time) against log(c) had a
# slope of 0.68 (torus-largeness), 0.71 (cli-cold), 0.76 (sl2-quotient)
# and 0.85 (torus-quotient), with correlations of 0.94 to 0.98; scaling by
# c itself left the fast and slow phases of torus-largeness 20 % apart.
SLOWDOWN_POWER = 0.75

_KEYS = [(i % 97, i // 97, -i) for i in range(2400)]


def calibrate():
    """Seconds taken by a fixed ~2 ms of dict, tuple and sort work."""
    start = time.perf_counter()
    d = {}
    for k in _KEYS:
        d[k] = d.get(k[:2], 0) + k[2] * 3
        d[k[:2]] = len(d)
    acc = sorted(d.values())
    sum(x * x for x in acc[::3])
    return time.perf_counter() - start


def at_reference(raw_s, c):
    return raw_s * (C_REF / c) ** SLOWDOWN_POWER


class Sampler:
    """Calibration samples with their times, taken on the CPU doing the work.

    ``record`` takes samples now (the benchmark calls it between timed
    operations); ``start`` also takes one every ``interval`` seconds from a
    SIGALRM handler, which runs in the main thread between bytecodes, until
    ``stop``.  ``spent`` is the samplers' own time so far, for callers to
    take out of their timings.  ``speed`` is the median calibration over an
    interval widened by ``margin`` seconds on either side: phases last
    seconds, and a short operation alone would see one or two noisy samples.
    """

    def __init__(self):
        self.times = []
        self.values = []
        self.spent = 0.0

    def record(self, count=1):
        for _ in range(count):
            start = time.perf_counter()
            c = calibrate()
            end = time.perf_counter()
            self.times.append(end)
            self.values.append(c)
            self.spent += end - start

    def start(self, interval=0.1):
        signal.signal(signal.SIGALRM, lambda signum, frame: self.record())
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, start, end, margin=1.0):
        lo = bisect.bisect_left(self.times, start - margin)
        hi = bisect.bisect_right(self.times, end + margin)
        if lo == hi:  # no sample in the window: take the nearest earlier one
            lo = max(lo - 1, 0)
            hi = lo + 1
        return statistics.median(self.values[lo:hi])
