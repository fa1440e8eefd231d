"""Machine-speed calibration for the reported times.

On a shared host the same Python code runs up to 1.5x slower for seconds
or minutes at a time, when other tenants load the core.  Run-to-run
spreads of raw wall times were 20-30% on a shared 2-vCPU Xeon virtual
machine, larger than any useful regression bound.  The loop below is
timed between requests throughout each run; it slows down with the host
just as quatflow does (on that machine the calibrated spreads of three
request types fell to 3-6%), and it does not depend on quatflow, so a
change to the program cannot move it.

Every reported time is multiplied by ``REFERENCE_S / mean(samples)``: it
is the time the run would have taken on a machine where this loop takes
REFERENCE_S.  Raw times and the factor are kept in the run record.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 1.5e-3
# one sample after each request, plus one per SAMPLE_EVERY_S of its latency
SAMPLE_EVERY_S = 0.1


def spin() -> float:
    """Seconds taken by a fixed pure-Python integer loop."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s += (i * i) % 7
    return time.perf_counter() - t0


def sample_after(latency_s: float, samples: list) -> None:
    for _ in range(1 + int(latency_s / SAMPLE_EVERY_S)):
        samples.append(spin())


def factor(samples) -> float:
    """Multiply a measured time by this to get reference-speed time."""
    return REFERENCE_S / statistics.fmean(samples)
