"""Summary statistics shared by the benchmark and its tests."""

from __future__ import annotations

import math
import statistics

#: Samples a tail percentile must have beyond it.
TAIL_BEYOND = 10


def tail(samples) -> tuple:
    """``(value, percentile)``: the highest percentile of ``samples`` with at
    least :data:`TAIL_BEYOND` samples beyond it.

    With ``n`` sorted samples that is the ``(n - 10)``-th smallest, the
    ``100 (n - 10) / n`` percentile.  Below 20 samples no percentile at or
    above the median qualifies, and the median is reported (percentile 50).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n < 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))

