"""Summary statistics for benchmark samples.

Quartiles follow ``statistics.quantiles(values, n=4)`` (the "exclusive"
method), the same rule used to judge run-to-run spread.  Percentiles use
the nearest-rank rule, so every reported percentile is an observed
sample.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

#: percentiles considered for the tail report, lowest first
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

#: a percentile is reported only when this many samples lie beyond it
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, median, q3); a single sample is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def item_medians(passes: Sequence[Sequence[float]]) -> list:
    """Per item, the median of its time over the passes.  A pass slowed
    for a few seconds by another tenant moves only the items it was
    running, and the median over three or more passes drops them."""
    return [median(col) for col in zip(*passes)]


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (nan if it is 0)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("nan")


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile among n samples (the
    rounding keeps 99.9% of 10000 at 9990, not 9991)."""
    return max(math.ceil(round(p * n / 100.0, 9)), 1)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("p must lie in (0, 100]")
    ordered = sorted(values)
    return float(ordered[_rank(len(ordered), p) - 1])


def beyond(n: int, p: float) -> int:
    """Number of samples strictly above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def tail_report(values: Sequence[float]) -> Dict[str, float]:
    """The highest ladder percentile with at least MIN_BEYOND samples
    beyond it, with its value and the sample count.  With fewer than
    MIN_BEYOND + 1 samples no percentile qualifies and the maximum is
    reported as p = 100."""
    n = len(values)
    best = None
    for p in PERCENTILE_LADDER:
        if beyond(n, p) >= MIN_BEYOND:
            best = p
    if best is None:
        return {"p": 100.0, "value": float(max(values)), "n": n, "beyond": 0}
    return {"p": best, "value": percentile(values, best), "n": n,
            "beyond": beyond(n, best)}
