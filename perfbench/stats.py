"""Small, dependency-free arithmetic used to turn samples and spans into metrics."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """q-th percentile (0..100) with linear interpolation between order statistics.

    Matches the "inclusive" method: the minimum is q=0 and the maximum q=100.
    Raises ValueError on an empty sample, since a missing measurement must
    not read as zero.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q!r}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def covered_length(intervals: Iterable[tuple[int, int]], start: int, end: int) -> int:
    """Length of [start, end] covered by the union of intervals, each clipped to it."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals if e > start and s < end)
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(start: int, end: int, children: Iterable[tuple[int, int]]) -> int:
    """A span's duration minus the part of it that its child spans cover."""
    return (end - start) - covered_length(children, start, end)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the acceptance spread)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
