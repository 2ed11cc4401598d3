"""Small, dependency-free statistics used by the benchmark's metrics."""

from __future__ import annotations

import math

#: The tail percentile must leave at least this many instances above it.
TAIL_BEYOND = 10


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when nothing was measured (never NaN)."""
    return num / den if den else 0.0


def median(values) -> float:
    vals = sorted(values)
    if not vals:
        return 0.0
    mid = len(vals) // 2
    return vals[mid] if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2


def hd_median(values) -> float:
    """The Harrell-Davis estimate of the median.

    A weighted mean of all order statistics: rank ``i`` of ``n`` gets the
    mass of Beta((n+1)/2, (n+1)/2) on ``[(i-1)/n, i/n]`` (integrated here
    with Simpson's rule, 32 intervals per rank).  Where the sample
    median rests on the one or two central values, this spreads the
    weight over the ranks around them, so the jitter of single values
    moves it less.
    """
    vals = sorted(values)
    n = len(vals)
    if n <= 2:
        return median(vals)
    a = (n + 1) / 2
    log_norm = math.lgamma(2 * a) - 2 * math.lgamma(a)

    def pdf(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * (math.log(x) + math.log1p(-x)))

    steps = 32
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        xs = [(i * steps + j) * h for j in range(steps + 1)]
        inner = sum((4 if j % 2 else 2) * pdf(x)
                    for j, x in enumerate(xs[1:-1], 1))
        weights.append(h / 3 * (pdf(xs[0]) + inner + pdf(xs[-1])))
    total = sum(weights)
    return sum(w * v for w, v in zip(weights, vals)) / total


def nearest_rank(values, pct: int) -> float:
    """The nearest-rank ``pct``-th percentile of ``values``."""
    vals = sorted(values)
    rank = max(1, math.ceil(pct * len(vals) / 100))
    return vals[rank - 1]


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, int, int]:
    """``(value, pct, n)``: the highest whole nearest-rank percentile
    that leaves at least ``beyond`` of the ``n`` values above it.

    With ``beyond`` or fewer values no percentile qualifies; the maximum
    is returned as percentile 100 so the caller can say so.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0, 0
    for pct in range(99, 0, -1):
        if n - math.ceil(pct * n / 100) >= beyond:
            return nearest_rank(values, pct), pct, n
    return max(values), 100, n


def self_times(spans) -> dict[int, float]:
    """Per-span self time: its duration minus the durations of its
    direct children, clamped at zero.  ``spans`` are mappings with
    ``span``, ``parent`` and ``duration_s`` keys (the JSONL schema)."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["duration_s"]
    return {
        s["span"]: max(0.0, s["duration_s"] - child.get(s["span"], 0.0))
        for s in spans
    }
