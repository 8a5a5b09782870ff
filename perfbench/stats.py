"""Summary statistics shared by run.py and compare.py."""

from __future__ import annotations

import math
import statistics


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def tail(values) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it,
    as (percentile, value); None below twenty samples."""
    n = len(values)
    if n < 20:
        return None
    p = math.floor(100 * (1 - 10 / n))
    return p, statistics.quantiles(values, n=100)[p - 1]
