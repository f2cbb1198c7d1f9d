"""Order statistics shared by the runner and the aggregator."""

from __future__ import annotations

import statistics

import numpy as np

# A percentile is only reported when at least this many samples lie beyond it.
TAIL_SAMPLES = 10


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = [float(v) for v in values]
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def tail(values, levels=(99, 90, 50)) -> tuple[int, float]:
    """The highest percentile of ``levels`` with enough samples beyond it."""
    n = len(values)
    for level in levels:
        if n * (100 - level) / 100 >= TAIL_SAMPLES:
            return level, float(np.percentile(values, level))
    return 50, float(np.percentile(values, 50))
