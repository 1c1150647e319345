"""Machine-speed probe for normalizing times on a shared host.

On a small shared VM the same child process ran up to 70% slower from one
minute to the next, in CPU time as well as wall time: the host's other
load slows the core itself, so no amount of repetition inside one run
removes it.  A fixed probe (a small sparse product with Fraction
coefficients, the same kind of work as the package's hot path) is timed
on the same core while the workload runs: SIGALRM interrupts the
workload every PERIOD_S and the handler times one probe.  A time divided
by the mean probe time, times PROBE_REF_NS, is that time at a fixed
reference speed.

The probe's own code and data never change with the package, so a
change to the package moves the normalized time and not the reference.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# Mean probe time on an idle Intel Xeon vCPU under CPython 3.11; this only
# fixes the scale of normalized times (normalized == measured at this speed).
PROBE_REF_NS = 400_000
PERIOD_S = 0.05

_A = {(i, j, (i * j) % 3): Fraction(i - 3, j + 1) for i in range(4) for j in range(3)}
_B = {(j, i, 1): Fraction(2 * i + 1, 3) for i in range(3) for j in range(3)}


def probe_ns() -> int:
    """Time of one probe; the cyclic GC is held off so that a collection
    of the workload's heap is never charged to the probe."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter_ns()
    out = {}
    for e1, c1 in _A.items():
        for e2, c2 in _B.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    elapsed = time.perf_counter_ns() - start
    if enabled:
        gc.enable()
    return elapsed


class Sampler:
    """Times one probe every PERIOD_S of wall time while started."""

    def __init__(self):
        self.total_ns = 0
        self.count = 0

    def _on_alarm(self, signum, frame):
        self.total_ns += probe_ns()
        self.count += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_ns(self) -> float | None:
        return self.total_ns / self.count if self.count else None


def burst_mean_ns(count: int) -> float:
    """Mean of `count` back-to-back probes (for runs too short to sample)."""
    return sum(probe_ns() for _ in range(count)) / count
