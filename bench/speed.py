"""Machine-speed correction for op times.

Other tenants of the host slow this process by up to 2x for seconds to
tens of seconds at a time (a fixed Fraction loop was measured to swing
between 22 and 47 ms within three minutes on an otherwise idle 2-vCPU
container).  SpeedMeter samples that speed *during* the ops: a SIGALRM
handler runs a ~1.5 ms probe of small-Fraction arithmetic, the kind of
work the ops do, every INTERVAL_S of wall time.  An op's time is then
scaled by REF_PROBE_S / (mean probe time around the op), i.e. reported as
seconds at the host's quiet speed, and the handler's own time is taken out
of the op's time.
"""
from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
# median probe time over 15 s in a calm period on this host
REF_PROBE_S = 0.0015
# an op shorter than this many sampling intervals borrows the latest
# samples taken before it
MIN_SAMPLES = 8


def probe() -> float:
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(400):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(i % 3 + 1, i % 11 + 1)
    return time.perf_counter() - t0


class SpeedMeter:
    """Context manager that samples probe times while it is open."""

    def __init__(self):
        self.samples = []
        self.stolen_s = 0.0         # wall time spent in the handler

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe())
        # one-shot re-arm, so a slow probe never nests another
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        self.stolen_s += time.perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def mark(self):
        return len(self.samples), self.stolen_s, time.perf_counter()

    def since(self, mark):
        """(seconds, scale) of the interval since `mark`: wall time minus
        handler time, and REF_PROBE_S over the mean probe time sampled in
        it (padded with the latest earlier samples up to MIN_SAMPLES)."""
        first, stolen, t0 = mark
        dt = time.perf_counter() - t0 - (self.stolen_s - stolen)
        if not self.samples:
            self.samples.append(probe())
        window = self.samples[max(0, min(first, len(self.samples) - MIN_SAMPLES)):]
        return dt, REF_PROBE_S / statistics.mean(window)
