"""Reference work that tracks how fast the machine runs at the moment.

On a shared host the speed of a pure-Python process drifts by up to 2x,
from second to second and for minutes at a time, and CPU time drifts with
wall time.  A job's time alone therefore says as much about the host as
about the program.  `Clock` times a fixed reference workload between
measurements; each measurement is scaled by REF_NOMINAL_S over the
reference time around it, which gives seconds at a fixed reference speed.

The reference has two parts, timed separately and combined by their
geometric mean: a small interpreter-bound loop, and random lookups in a
dict of tuple keys too large for the CPU caches.  The program's work is
of both kinds (tuple-keyed dicts, integer arithmetic).  The reference is
code of the benchmark, not of the program, so a change to the program
does not move it.
"""

from __future__ import annotations

import math
import random
import statistics
import time

# Reference time, in seconds, that defines the reference speed.  On the
# 2-core host the benchmark was built on the reference took 0.011-0.016 s
# (the host's speed drifts), so scaled times read as that host's seconds
# in one of its slower spells.
REF_NOMINAL_S = 0.016

SMALL_RUNS = 3   # timed runs of each part per sample
BIG_RUNS = 2
BIG_SIZE = 200_000
BIG_LOOKUPS = 30_000


def _small() -> float:
    d = {}
    s = 0
    t0 = time.perf_counter()
    for i in range(20_000):
        k = (i & 255, i % 13)
        s += d.get(k, 1) * 3
        d[k] = s % 1_000_003
    return time.perf_counter() - t0


class Clock:
    """Samples the reference at each call of `scale`."""

    def __init__(self):
        self.table = {(i, i * 7 % 1013): i for i in range(BIG_SIZE)}
        keys = list(self.table)
        random.Random(1).shuffle(keys)
        self.keys = keys[:BIG_LOOKUPS]
        self.prev = self._sample()

    def _big(self) -> float:
        table = self.table
        out = {}
        s = 0
        t0 = time.perf_counter()
        for k in self.keys:
            v = table[k]
            s = (s + v * k[0]) % 1_000_000_007
            out[(k[1], v & 63)] = s
        return time.perf_counter() - t0

    def _sample(self) -> tuple:
        return ([_small() for _ in range(SMALL_RUNS)],
                [self._big() for _ in range(BIG_RUNS)])

    def scale(self) -> float:
        """REF_NOMINAL_S over the reference time around the interval since
        the previous call (or since construction).  The reference time is
        the geometric mean of the medians of each part's runs just before
        and just after the interval."""
        cur = self._sample()
        small = statistics.median(self.prev[0] + cur[0])
        big = statistics.median(self.prev[1] + cur[1])
        self.prev = cur
        return REF_NOMINAL_S / math.sqrt(small * big)
