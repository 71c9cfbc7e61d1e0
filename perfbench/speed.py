"""Speed probe: how fast this CPU is running, sampled inside the timed work.

The benchmark runs on shared virtual machines whose speed swings by a third
and more within seconds, for every kind of work, pinned or not.  A raw time
then says more about the neighbours than about the program.  So every
benchmark process samples its own CPU's speed while it works: a process-CPU
interval timer (``SIGPROF`` every ``INTERVAL_S`` of CPU time) runs a fixed
chunk of ``Fraction`` arithmetic between two bytecodes of the interrupted
work and times it.  The chunk runs on the same CPU at the same moment as the
work, so its time moves with the machine's speed; it never calls the library,
so a faster library does not make it faster.

`Probe.factor(start, end)` is the mean of ``REF_CHUNK_S / chunk time`` over
the samples taken in that stretch: its mean speed relative to the reference
speed, at which the chunk takes ``REF_CHUNK_S``.  Samples come at even steps
of CPU time, so the mean weighs each moment by the time the work spent in it,
and a stretch's time multiplied by its factor is its time at the reference
speed.  (A median would pick the faster or the slower of two speeds a stretch
mixed, instead of their blend.)  A chunk that loses the CPU halfway through
comes out slow, so it moves a mean of speeds by at most its own weight.  The
chunk costs about 1.5 % of the work it interrupts, at any speed.

On a shared 2-vCPU Xeon VM (2.1 GHz, Python 3.11), ten pentagon pipelines
whose raw times ranged from 21 to 30 s had scaled times with an interquartile
spread of 1 % of their median (README.md, "Scaled to a reference speed").
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.01       # CPU time between two samples
REF_CHUNK_S = 150e-6    # chunk time at the reference speed: about its time on the
                        # Xeon VM above at its fastest, so scaled times are near
                        # the raw times of an unloaded run there
MIN_WINDOW_S = 1.0      # a shorter stretch is judged by the samples of this window around it
MIN_SAMPLES = 5         # fewer in the window: use this many samples nearest its middle

_TERMS = [Fraction(37 * i % 997 + 1, 101 * i % 991 + 1) for i in range(40)]


def chunk() -> Fraction:
    """The fixed work the probe times: 40 products and sums of small fractions."""
    s = Fraction(0)
    for f in _TERMS:
        s = s + f * f
    return s


class Probe:
    """Samples of the chunk's time, taken every ``INTERVAL_S`` of this process's CPU time."""

    def __init__(self):
        self.times: list[float] = []   # perf_counter at the start of each sample
        self.costs: list[float] = []   # seconds the chunk took

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        chunk()
        self.costs.append(time.perf_counter() - t0)
        self.times.append(t0)

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def factor(self, start: float, end: float, min_window: float = MIN_WINDOW_S) -> float:
        """Reference speed over this CPU's speed from ``start`` to ``end`` (perf_counter)."""
        if not self.times:
            raise RuntimeError("the speed probe took no samples")
        mid = (start + end) / 2
        lo = bisect.bisect_left(self.times, min(start, mid - min_window / 2))
        hi = bisect.bisect_right(self.times, max(end, mid + min_window / 2))
        if hi - lo < MIN_SAMPLES:
            at = bisect.bisect_left(self.times, mid)
            hi = min(len(self.times), max(at, MIN_SAMPLES // 2) + (MIN_SAMPLES + 1) // 2)
            lo = max(0, hi - MIN_SAMPLES)
        return statistics.fmean(REF_CHUNK_S / cost for cost in self.costs[lo:hi])
