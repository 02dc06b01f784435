"""Machine-speed calibration for the benchmark's timings.

The box the benchmark runs on is a share of a host whose speed changes
by tens of percent from one second to the next as other tenants load
it; the process's CPU time changes with its wall time, on either core.
So while timed code runs, ``SpeedSampler`` interrupts it every
``INTERVAL_S`` seconds of wall time (``SIGALRM``) and times a short
fixed loop that imports nothing from certicube. A timing is then
reported in reference seconds:

    reported = (wall time - time spent in the sampler)
               * mean of REFERENCE_S / (loop time) over its samples

that is, the work done divided by the speed of a machine on which the
loop takes ``REFERENCE_S`` (it takes 1.3-2.5 ms, with the load, on the
2-core x86-64 virtual machine the benchmark was tuned on). A change to
certicube moves the work and not the speed samples; a slower or busier
machine moves both.
"""

from __future__ import annotations

import heapq
import math
import signal
import time
from array import array

ROUNDS = 1500
REFERENCE_S = 0.002
INTERVAL_S = 0.05

_TABLE = [[0.0, 0.0] for _ in range(1024)]


def loop_seconds():
    """Wall seconds of one pass of a fixed loop of float arithmetic,
    calls, tuple and list allocation, heap and list traffic: the kinds
    of work certicube's Python code does. Its table lives as long as the
    process, so that running it inside the timed code keeps the number
    of live objects, and peak memory, nearly unchanged."""
    start = time.perf_counter()
    heap = []
    table = _TABLE
    acc = 0.0
    for i in range(ROUNDS):
        x = (i * 0.6180339887498949) % 1.0
        acc += math.exp(-x) * x
        heapq.heappush(heap, (x, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        table[i & 1023] = [x, acc]
    return time.perf_counter() - start


def speed(loop_samples):
    """Mean speed over loop times, relative to the reference machine."""
    return sum(REFERENCE_S / t for t in loop_samples) / len(loop_samples)


class SpeedSampler:
    """Times ``loop_seconds`` on a wall-clock timer while it is started.

    ``samples`` holds the loop times and ``paused_s`` the total time spent
    in the handler, which a caller subtracts from its own timings. Use
    ``mark()`` before and ``since(mark)`` after a timed section.
    """

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.samples = array("d")
        self.paused_s = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(loop_seconds())
        self.paused_s += time.perf_counter() - start

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return len(self.samples), self.paused_s

    def since(self, mark):
        """(loop times taken, seconds paused) since ``mark``."""
        count, paused = mark
        return self.samples[count:].tolist(), self.paused_s - paused
