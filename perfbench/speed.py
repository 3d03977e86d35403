"""The machine's current speed, from a fixed calibration loop.

The machine this benchmark was built on is shared: from one second to the
next, and for tens of seconds at a time, the same work takes up to 1.6x
longer, in CPU time as much as in wall time.  Timing this loop on the same
CPU around and during a stretch of work measures the speed that work got;
the work's time times REFERENCE_S over the mean calibration is its time at
the reference speed.  The loop must run while nothing else of ours runs, so
that it measures the machine and not our own work.
"""
from __future__ import annotations

import time
from fractions import Fraction

STEPS = 6000
# calibrate() when the build machine is unloaded (Xeon, KVM guest, Python 3.11)
REFERENCE_S = 0.021


def calibrate() -> float:
    """CPU seconds for a fixed loop of exact rational arithmetic and small
    dict and tuple work, the package's staple operations."""
    start = time.process_time()
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, STEPS):
        q = Fraction(i % 97 + 1, i % 13 + 1)
        acc += q * q
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0) + 1
    return time.process_time() - start
