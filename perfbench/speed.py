"""Correction of measured times for the drifting speed of the machine.

On a machine shared with other tenants the same pure-Python work can take
twice as long in one hour as in another, and its speed changes by tens of
percent within a minute; CPU time changes with wall time.  The benchmark
therefore times a fixed piece of interpreter work, the probe, at regular
intervals while the program runs.
A time measured over an interval is scaled by

    REFERENCE_PROBE_S / (mean probe time during the interval),

which gives the time the same work would have taken at the machine's
reference speed.  The probe is the benchmark's own code, so no change to
graycohom moves it.  Work that competes with the program inside the same
process (say, a busy thread it starts) would slow the probe as well and be
partly scaled away; graycohom starts none.

During the rounds the probe runs from a SIGALRM handler every INTERVAL_S
seconds, between two bytecodes of whatever the program is doing; the
handler's own time is subtracted from the operation it interrupted.  Around
the set-up, which is shorter than one interval, the probe runs in bursts
just before and just after.
"""

from __future__ import annotations

import signal
import statistics
import time

# the probe's time on the reference machine (2 vCPUs, Python 3.11.7) at a
# typical speed; it only sets the scale of the corrected times
REFERENCE_PROBE_S = 0.008
INTERVAL_S = 0.2
PROBE_STEPS = 20000


def probe() -> int:
    """A fixed piece of interpreter work of the kind graycohom does: dict
    lookups with tuple keys and small-integer arithmetic."""
    d: dict = {}
    for i in range(PROBE_STEPS):
        k = (i % 61, i % 7)
        d[k] = d.get(k, 0) + i * 7 % 13
    return len(d)


class Speed:
    """Probe samples and the time they took away from the program."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0
        self._old = None

    def sample(self, *_):
        t = time.perf_counter()
        probe()
        d = time.perf_counter() - t
        self.samples.append(d)
        self.spent += d

    def burst(self, n: int):
        for _ in range(n):
            self.sample()

    def start(self):
        """Probe every INTERVAL_S seconds from a SIGALRM handler."""
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int) -> float:
        """REFERENCE_PROBE_S over the mean probe time of the samples taken
        since mark() returned `since`; one more sample if there are none."""
        if len(self.samples) == since:
            self.sample()
        return REFERENCE_PROBE_S / statistics.fmean(self.samples[since:])
