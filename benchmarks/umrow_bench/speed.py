"""A speed probe: a fixed pure-Python workload, independent of umrow, whose
time tracks the CPU speed the host gives the benchmark at that moment.

On a shared host a core's speed shifts between regimes for seconds at a
time (on a 2-CPU Xeon host the probe reads about 0.47 ms in one and 0.8 ms
in the other), which moves every op of a pass alike.  The worker probes just
before and just after each op's call, and the metrics scale the op's time by
the reference probe time over the mean of the two probes.
"""

from __future__ import annotations

import gc
import time

REFERENCE_PROBE_S = 0.5e-3  # the probe on an uncontended core of that host

_FACTOR = {(i, j, k): (7 * i + 3 * j + k) % 101 + 1 for i in range(3) for j in range(3) for k in range(3)}


def _work() -> None:
    """Two sparse products of a 27-term polynomial with itself: tuple
    exponents, big-integer coefficients reduced mod a prime."""
    for _ in range(2):
        out: dict = {}
        for m1, c1 in _FACTOR.items():
            for m2, c2 in _FACTOR.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                out[m] = out.get(m, 0) + c1 * c2 * (c1 + 10**30) % 32003


def probe_s() -> float:
    """Seconds for the fixed workload, best of two, with the collector off
    so that umrow's heap does not enter the reading."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            _work()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()
