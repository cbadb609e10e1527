"""Seconds at a fixed reference speed of the core the process runs on.

On a shared host the speed of one virtual core can move by a fifth or more
within seconds, as its neighbours come and go (seen on a 2-vCPU Intel Xeon
virtual machine, whose two cores moved independently). Timed regions
therefore carry a probe: a SIGALRM timer runs a fixed pure-Python loop
every PROBE_INTERVAL_S on the main thread and records the CPU time that
thread spent in it. A measured time t is reported as
``t * (REF_LOOP_S / mean(loop times in its window)) ** SENSITIVITY``: the
seconds it would have taken on a core where the loop takes REF_LOOP_S. The
probe costs about 1.5% of the region it samples, in every run alike.

SENSITIVITY is above 1 because the engine's interpreted code (tuples,
dicts, allocation) slows more under a neighbour's load than the loop,
which stays in registers. On the host above, the log CPU time of 24
repeated one-stage counts against the log loop time in the same window
had a slope of 1.30 (correlation 0.99); over ten runs of each workload
the spread of scaled wall_s was smallest for exponents of 1.2 to 1.3,
and at 1.0 it was 0.05 to 0.10 of the median.

The loop is timed in its own thread's CPU time, not in wall time, so time
it spends waiting for the GIL or for a core while the engine's own threads
or worker processes are busy does not slow it: the probe reads the speed of
the core, not the engine's parallelism. What it cannot tell apart is a core
slowed by the engine's own work on a sibling hyperthread; such a slowdown
is scaled away like a neighbour's. Time stolen by the hypervisor is not in
the loop's CPU time either, and stays in the scaled wall time.
"""
from __future__ import annotations

import signal
import statistics
import time

PROBE_INTERVAL_S = 0.1
PROBE_LOOPS = 20_000
REF_LOOP_S = 0.0015  # the loop's CPU time that defines one reference second
SENSITIVITY = 1.25  # engine seconds go as the loop time to this power
MIN_SAMPLES = 10


def probe_loop() -> float:
    t0 = time.thread_time()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.thread_time() - t0


class SpeedProbe:
    """``with SpeedProbe() as probe:`` samples the loop time while the block runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe_loop())

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        # A region too short for the timer is scaled by loops run just after it.
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(probe_loop())

    def scale(self, lo: int = 0, hi: int | None = None) -> float:
        """Factor from measured to reference seconds over samples[lo:hi],
        or over all samples when that window holds fewer than MIN_SAMPLES."""
        window = self.samples[lo:hi]
        if len(window) < MIN_SAMPLES:
            window = self.samples
        return (REF_LOOP_S / statistics.fmean(window)) ** SENSITIVITY
