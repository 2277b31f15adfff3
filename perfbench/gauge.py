"""A fixed pure-Python loop that gauges how fast the machine runs right now.

Other tenants of a shared machine slow every process on it, on a 2-core
sandbox by up to 2 times for minutes at a time. The benchmark times this loop
beside the work it measures and scales each time to a machine on which the
loop takes ``REFERENCE_S``: a change to the program moves the scaled time,
while a busier machine slows the work and the loop alike and leaves it.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.005  # the loop's time on a quiet 2-core Xeon sandbox
EVERY_S = 0.25  # time the loop again after this much measured work


def loop_s() -> float:
    """Seconds the reference loop takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += len(str(i * 2654435761))
    return time.perf_counter() - start


def scaled(seconds: float, loop: float) -> float:
    """``seconds`` measured while the loop took ``loop``, at reference speed."""
    return seconds * REFERENCE_S / loop
