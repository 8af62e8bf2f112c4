"""Correction of timings for the host's changing speed.

On a shared host the speed of one core drifts: in the sandbox where this
benchmark was defined, by up to ±25% over minutes, in CPU time as well
as wall time, and much alike for any pure-Python code.  Medians taken
twenty minutes apart can then differ by more than the largest regression
bound, whatever gtrans does.  So each run also times a fixed loop, once
before the first measurement and once after each one, and scales its
median by how fast that loop ran on average:

    corrected = median wall seconds * REFERENCE_LOOP_S / mean loop seconds

A corrected figure reads as seconds on a host where the loop takes
exactly REFERENCE_LOOP_S.  The loop does not touch gtrans, so any change
in gtrans' own speed passes through unscaled.  The mean, not the median,
of the loops goes in: the host switches between a fast and a slow state
within seconds, and a median wall time spans both, in proportion.
"""

from __future__ import annotations

import time

# a round figure inside the range the loop took on the 2-core sandbox where
# the benchmark was defined (0.13 to 0.22 s as that host's speed drifted)
REFERENCE_LOOP_S = 0.2


def loop_seconds() -> float:
    """Wall seconds of a fixed mix of work.

    First integer, string and dict operations, then random access over
    4 MB of small lists, so that the loop also feels the cache and memory
    contention that slows the translator.
    """
    t0 = time.perf_counter()
    table: dict[str, int] = {}
    s = 12345
    for i in range(120_000):
        s = (s * 1103515245 + 12345) & 0x7FFFFFFF
        key = "k%d" % (s % 997)
        table[key] = table.get(key, 0) + (s >> 7)
        if i % 7 == 0:
            table.pop(key, None)
    nodes = [[0, 1] for _ in range(50_000)]
    for _ in range(200_000):
        s = (s * 1103515245 + 12345) & 0x7FFFFFFF
        node = nodes[s % 50_000]
        node[0] += node[1]
    return time.perf_counter() - t0


def corrected(seconds: float, loop_s: float) -> float:
    """Seconds at reference host speed, given the loop's seconds."""
    return seconds * REFERENCE_LOOP_S / loop_s
