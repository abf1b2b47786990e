"""Calibrated timing: wall-clock time rescaled by a fixed reference loop.

On a shared machine the speed of a Python process drifts by tens of percent
from one second to the next.  ``timed`` runs a fixed pure-Python reference
loop right before and right after the operation and scales the operation's
time by NOMINAL_REF_S / (mean reference time), so a result reads as seconds
on a machine that runs the reference loop in exactly NOMINAL_REF_S.
"""

from __future__ import annotations

import gc
import time

# The reference loop's time at nominal speed, a fixed constant: the median
# of the loop on a 2-core x86-64 container under Python 3.11.7 (README).
NOMINAL_REF_S = 0.00285
REF_ITERATIONS = 3000


def reference_loop() -> float:
    """Dict, set, tuple and big-int work like the program's; returns its duration."""
    start = time.perf_counter()
    seen = set()
    table: dict[int, int] = {}
    x = 1
    for _ in range(REF_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 255, x >> 23)
        if key not in seen:
            seen.add(key)
        table[x & 1023] = table.get(x & 1023, 0) | (1 << (x & 127))
    frozenset(seen)
    return time.perf_counter() - start


def timed(fn):
    """Run fn() once after an untimed gc.collect(); returns (result, calibrated s, raw s)."""
    gc.collect()
    before = reference_loop()
    start = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - start
    after = reference_loop()
    return result, raw * NOMINAL_REF_S * 2 / (before + after), raw
