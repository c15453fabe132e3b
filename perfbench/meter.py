"""Wall time of timed calls, also counted in runs of a fixed reference computation.

The virtual CPUs this benchmark was built on switch between speed states
about 60 % apart every 10 to 30 s, so the same call reads very different
wall times from one moment to the next.  The meter therefore times a fixed
pure-Python computation just before and just after each call, and every
quarter second during it (from a timer signal, between the call's own
bytecodes), and divides the call's own wall time by the mean of those
reference times.  The ratio is what the benchmark reports.  The reference
is benchmark code, the same on both sides of any comparison, so a change to
the program moves the ratio just as it moves wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

SAMPLE_S = 0.25  # reference interval while a call runs


def reference_kernel() -> int:
    """Fixed pure-Python integer work, about 7 ms."""
    a, b, c, d = 1, 2, 3, 4
    m = 0xFFFFFFFF
    for i in range(12_000):
        a, b, c, d = (b ^ (c << 1)) & m, (c + d) & m, (d ^ a) & m, (a + i) & m
    return a


def reference_ns() -> int:
    t0 = time.perf_counter_ns()
    reference_kernel()
    return time.perf_counter_ns() - t0


class Meter:
    """Totals of timed calls: wall ns, and cost in reference runs."""

    def __init__(self) -> None:
        self.busy_ns = 0
        self.cost = 0.0

    def time(self, fn, *args):
        """``fn(*args)`` timed; returns (result, wall ns without the reference runs)."""
        refs = [reference_ns()]

        def sample(signum, frame):
            refs.append(reference_ns())

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args)
        finally:
            ns = time.perf_counter_ns() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        ns -= sum(refs[1:])
        refs.append(reference_ns())
        self.busy_ns += ns
        self.cost += ns / statistics.fmean(refs)
        return result, ns
