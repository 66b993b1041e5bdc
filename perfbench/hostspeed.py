"""
Host-speed canary: scales a measured wall time to a reference host speed.

On a shared host the speed at which a Python program runs drifts with the
load of other tenants, by up to 2x within seconds and between minutes,
while the CPU time it is charged tracks the wall time.  A median over a
run does not remove that drift; timing a fixed piece of work alongside
the program does.

While a ``Canary`` runs, a SIGALRM timer interrupts the process every
``INTERVAL_S``.  The handler, which Python runs in the main thread between
two bytecodes of the program, times one call of ``work``: a fixed piece
of pure-Python object work (instances, attribute reads, a dict, float
math) that uses nothing of ``sunpump``.  With ``c_1 .. c_n`` the canary
times taken while a wall time ``W`` was measured, the work done in the
interval is proportional to ``W * mean(1 / c)``, so

    scaled = W * REF_S / harmonic_mean(c)

is the time ``W`` would have taken on a host on which one canary call
takes ``REF_S``.  On the 2-vCPU host the benchmark was written on
(Intel Xeon, 2.1 GHz, Python 3.11) the canary tracked daylight job times
with a correlation of 0.98 and cut the quartile spread of 53 jobs from
0.17 to 0.03 of their median; on the analysis jobs from 0.23 to 0.04.

The canary costs the measured program about 1 % of its time, the same
share on every job.  It sees only what slows this thread: a program that
competed with its own main thread (more threads than cores) would have
that slowdown scaled away, so the benchmark also reports the raw wall
times and the canary times next to the scaled ones.
"""

import gc
import math
import signal
import time

INTERVAL_S = 0.01
# canary time of the reference host: about the fast phase of the host
# the benchmark was written on
REF_S = 60e-6


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def _affine(p, k):
    return p.x * k + p.y


def work():
    """The canary: fixed pure-Python work, no I/O, no sunpump."""
    table = {}
    acc = 0.0
    for i in range(150):
        table[i & 15] = _affine(_Point(i * 0.5, 1.0), 1.0001)
        acc += math.sqrt(table[i & 15] + 1.0)
    return acc


def time_work():
    """Seconds one canary call takes now, with the collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(samples):
    """Factor from a wall time to reference-host seconds, given the canary
    times taken while it was measured."""
    if not samples:
        samples = [time_work() for _ in range(20)]
    return REF_S * sum(1.0 / c for c in samples) / len(samples)


class Canary:
    """Times ``work`` every ``interval_s`` seconds of wall time."""

    def __init__(self, interval_s=INTERVAL_S):
        self.interval_s = interval_s
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(time_work())

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                         self.interval_s)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self):
        """The canary times since the last ``take`` (or ``start``)."""
        samples, self.samples = self.samples, []
        return samples
