"""Scaling timings to a reference machine speed.

On a shared 2-vCPU x86-64 VM the same code runs up to 2x slower in
spells that last from under a second to minutes, and the spells slow
every kind of item about equally (the long ``chains`` items
somewhat less).  Over ten 30 s runs, the median item latency spread
(quartile distance over median) by 0.35 on ``corpus``, far past any
useful bound.

So the benchmark times a fixed probe, which runs no program code, next
to every item and every set-up round, and scales each raw time by
REF_PROBE_S over the mean of the two probe times around it.  A timing
metric then reads as the time the work would take at the speed where
the probe takes REF_PROBE_S, close to that VM's fast spells.  On the
same ten runs the spread of that median fell to 0.04.  A change to the
program moves scaled and raw times alike, because the probe does not
depend on it.  ``run.py`` also prints the raw figures.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from time import perf_counter

REF_PROBE_S = 2e-3

_MATRIX = tuple(tuple((3 * r + 5 * c) % 7 + 1 for c in range(6)) for r in range(6))


def _probe():
    # the program's own kinds of work: a memoized Laplace expansion of
    # integer minors with tuple slicing, and Fraction arithmetic
    memo = {}

    def det(rows, cols):
        if len(rows) == 1:
            return _MATRIX[rows[0]][cols[0]]
        key = (rows, cols)
        if key not in memo:
            total, sign = 0, 1
            for idx, c in enumerate(cols):
                total += sign * _MATRIX[rows[0]][c] * det(rows[1:], cols[:idx] + cols[idx + 1:])
                sign = -sign
            memo[key] = total
        return memo[key]

    g = 0
    for rows in combinations(range(6), 3):
        for cols in combinations(range(6), 3):
            g = gcd(g, det(rows, cols))
    s = Fraction(0)
    for i in range(1, 150):
        s += Fraction(i % 13 + 1, i % 7 + 2) * Fraction(3, i % 5 + 1)
    return g, s


def probe_s():
    """Seconds one run of the probe takes now."""
    start = perf_counter()
    _probe()
    return perf_counter() - start


def scale(times, probes):
    """Scale ``times[i]``, which ran between ``probes[i]`` and
    ``probes[i + 1]``, to the reference speed."""
    if len(probes) != len(times) + 1:
        raise ValueError("need one probe before each time and one after the last")
    return [t * REF_PROBE_S * 2 / (probes[i] + probes[i + 1])
            for i, t in enumerate(times)]
