"""Machine-speed reference for timing on a shared machine.

On a machine shared with other tenants the same computation can run 1.5
to 2 times slower for minutes at a time, and CPU time slows with it.
`spin()` is a fixed pure-Python computation (Fraction and big-integer
arithmetic, like the package's inner loops), so its duration tells how
fast the machine runs at that moment.  Every time the benchmark reports
is scaled to reference speed: the speed at which `spin()` takes
REFERENCE_S seconds.  Raw wall times are printed beside the metrics.

`Clock` times the operations of one run.  The workload calls `tick()`
once per candidate; about every SEGMENT_S seconds, and between
operations, the clock pauses and times `spin()` (median of three, so one
interrupted spin does not count).  Spin time is not part of any
operation's time.  Each operation's raw time is scaled by REFERENCE_S
over the median of its own spin samples and of any others in a window of
at least WINDOW_S seconds around it: the window follows slow stretches
of the machine that cover only some of a run's operations, and holds
enough samples that the jitter of single spins cancels out.
"""

import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.02
SEGMENT_S = 1.0
WINDOW_S = 8.0

def spin():
    x, acc = Fraction(1, 3), 0
    for i in range(1, 2000):
        x = (x * x + Fraction(i, 7)) / (x + 1)
        x = Fraction(x.numerator % 10**12, x.denominator % 10**12 + 1)
        acc += sum(divmod(i * 1234567891011, 97))
    return x, acc


def spin_seconds():
    """Median duration of three spin() calls."""
    times = []
    for _ in range(3):
        start = perf_counter()
        spin()
        times.append(perf_counter() - start)
    return sorted(times)[1]


class Clock:
    def __init__(self, segment_s=SEGMENT_S):
        self.segment_s = segment_s
        self.samples = []  # (time, spin seconds)

    def _sample(self):
        self.samples.append((perf_counter(), spin_seconds()))

    def begin(self):
        """Start an operation."""
        self.first = len(self.samples)
        self._sample()
        self.ticks = 0
        self.raw_s = 0.0
        self.began = self.start = perf_counter()

    def tick(self):
        self.ticks += 1
        if perf_counter() - self.start >= self.segment_s:
            self.raw_s += perf_counter() - self.start
            self._sample()
            self.start = perf_counter()

    def end(self):
        """End the operation; returns (raw seconds, ticks, its span for factor())."""
        ended = perf_counter()
        self.raw_s += ended - self.start
        self._sample()
        return self.raw_s, self.ticks, (self.first, len(self.samples), self.began, ended)

    def factor(self, span):
        """Raw-to-reference factor: the operation's own samples, from the
        one before it to the one after it, and any others within the window."""
        first, last, began, ended = span
        margin = max(0.0, (WINDOW_S - (ended - began)) / 2)
        spins = [
            s
            for i, (t, s) in enumerate(self.samples)
            if first <= i < last or began - margin <= t <= ended + margin
        ]
        return REFERENCE_S / statistics.median(spins)
