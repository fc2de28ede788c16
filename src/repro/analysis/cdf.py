"""Access-CDF analysis (Figure 1).

Figure 1 plots, per workload, the cumulative fraction of accesses covered
by the x % most frequently accessed items.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.workloads import calibration
from repro.workloads.trace import Trace


def access_cdf(trace: Trace, points: int = 200) -> List[Tuple[float, float]]:
    """(fraction of hottest items, fraction of accesses) curve.

    Items never accessed in the trace still count toward the item
    population denominator? — No: following Figure 1, the population is
    the trace's accessed item set (the cache only ever sees those).
    """
    counts = trace.access_counts()
    if not counts:
        return [(0.0, 0.0), (1.0, 1.0)]
    ordered = np.array(sorted(counts.values(), reverse=True), dtype=np.float64)
    cumulative = np.cumsum(ordered)
    total = cumulative[-1]
    n = len(ordered)
    curve = [(0.0, 0.0)]
    for i in range(1, points + 1):
        index = max(1, int(round(i * n / points)))
        curve.append((index / n, float(cumulative[index - 1] / total)))
    return curve


def coverage_point(trace: Trace) -> float:
    """Fraction of hottest items receiving ``ACCESS_SHARE`` of accesses.

    The paper's headline Figure 1 numbers (e.g. "the 3.6 % most
    frequently accessed items receive 80 % of total accesses" for ETC).
    """
    counts = trace.access_counts()
    if not counts:
        return 0.0
    ordered = np.array(sorted(counts.values(), reverse=True), dtype=np.float64)
    cumulative = np.cumsum(ordered)
    target = calibration.ACCESS_SHARE * cumulative[-1]
    k = int(np.searchsorted(cumulative, target, side="left")) + 1
    return min(k, len(ordered)) / len(ordered)
