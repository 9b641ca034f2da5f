"""Speed probe: scales measured times to a fixed reference speed.

On a shared host the same code runs up to about 1.8x slower for seconds to
tens of seconds at a time, when another tenant loads the hardware this CPU
shares.  A median over a 30 s run then depends on how much of the run fell
in a slow phase, and raw medians of identical code spread by 15-30 %.

While a workload runs, an interval timer interrupts it every PERIOD_S and
times a small fixed kernel that does not touch ``deconvsim``: floats
formatted to text, as the CSV writers do, and a 2000-element argsort, as
the engine does, timed on its second back-to-back run.  (A kernel of
interpreter work alone tracked the NumPy-bound large-n workload worse than
no scaling at all.)  Python runs signal handlers in the main thread between
bytecodes, so no thread is started.  A call's time, less the time spent in
the probe during it, is multiplied by REFERENCE_S / (mean kernel time
within WINDOW_S of the call).  The tracer times spans with the same
probe-free clock.  A change to the program leaves the kernel unchanged, so
a scaled time moves with the program and not with the neighbours.  The
report prints raw times next to the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# The kernel's time on the machine the benchmark was calibrated on
# (2-vCPU Intel Xeon KVM guest, Python 3.11, NumPy 2.4) in an uncontended
# phase.  Scaled times are seconds at that speed.
REFERENCE_S = 0.0002
PERIOD_S = 0.025
WINDOW_S = 0.1


class SpeedProbe:
    """Context manager that samples the kernel's time while it is active."""

    def __init__(self):
        rng = np.random.default_rng(20070801)
        self._values = rng.random(2000)
        self._text = self._values[:200].tolist()
        self.starts: list[float] = []
        self.costs: list[float] = []
        self.spent = 0.0  # seconds spent inside the probe so far
        self._previous = None

    def clock(self) -> float:
        """perf_counter less the time spent in the probe so far."""
        return time.perf_counter() - self.spent

    def _kernel(self) -> None:
        ",".join([repr(v) for v in self._text])
        np.argsort(self._values)

    def _sample(self, signum, frame) -> None:
        enter = time.perf_counter()
        # The first run refills the caches the workload evicted, so the
        # timed second run measures the machine, not the workload's footprint.
        self._kernel()
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.costs.append(end - start)
        self.spent += end - enter

    def __enter__(self) -> "SpeedProbe":
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """Factor taking a time measured in [start, end] to reference speed."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        costs = self.costs[lo:hi] or self.costs[-4:]
        return REFERENCE_S / statistics.fmean(costs)
