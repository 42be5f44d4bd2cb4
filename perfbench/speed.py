"""Wall time rescaled to a reference CPU speed measured while the work runs.

Each CPU of the 2-vCPU VM this benchmark was sized on runs in one of two
modes, the slow one taking about 1.8x as long for the same Python code, with
milder swings of about 10 % on top.  It switches every few seconds to tens
of seconds, independently per CPU (perfbench/README.md has a trace).  A
15-60 s run can fall wholly in either mode, so medians over passes do not
remove the switch.

So a child samples the speed of its own CPU while it works: every INTERVAL_S
a SIGALRM handler runs a fixed pure-Python probe and records how long it
took.  A time span is integrated piecewise, each piece scaled by
REF_PROBE_S / (median of the WINDOW nearest probes), and the probes' own
time is left out.  The result is in reference seconds: the seconds the work
would take on a CPU whose probe takes REF_PROBE_S.  The runner pins itself
and every child to one CPU, so the probes measure the CPU that does the
work, including the forked CLI commands of cli-sweep.
"""

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
#: probe time in that VM's fast mode (Python 3.11.7); it reads
#: 0.30-0.38 ms there depending on the cache state the work leaves behind
REF_PROBE_S = 0.00033
#: a probe slower than this found the slow mode (printed as a share only)
SLOW_PROBE_S = 0.0005
WINDOW = 5


def probe():
    """A fixed pure-Python Fraction loop."""
    total = Fraction(0)
    for i in range(1, 151):
        total += Fraction(i % 13, i % 17 + 1)
    return total


class SpeedClock:
    def __init__(self):
        self.starts = []
        self.durations = []

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.sample()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def _on_alarm(self, signum, frame):
        self.sample()

    def sample(self):
        t0 = time.monotonic()
        probe()
        self.starts.append(t0)
        self.durations.append(time.monotonic() - t0)

    def _rolling(self):
        d, h = self.durations, WINDOW // 2
        return [statistics.median(d[max(0, k - h):k + h + 1])
                for k in range(len(d))]

    def scaled(self, a, b):
        """Reference seconds of work between monotonic times a and b.  Each
        probe stands for the speed from halfway after the previous probe to
        halfway before the next one."""
        ts, ds = self.starts, self.durations
        total = 0.0
        for k, (t, d, m) in enumerate(zip(ts, ds, self._rolling())):
            f = REF_PROBE_S / m
            lo = (ts[k - 1] + t) / 2 if k else float("-inf")
            hi = (t + ts[k + 1]) / 2 if k + 1 < len(ts) else float("inf")
            overlap = min(b, hi) - max(a, lo)
            if overlap > 0:
                total += overlap * f
            if a <= t and t + d <= b:
                total -= d * f
        return total

    def slow_share(self):
        """Share of probes that found the slow mode."""
        rolling = self._rolling()
        return sum(m >= SLOW_PROBE_S for m in rolling) / len(rolling)
