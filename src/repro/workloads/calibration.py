"""Calibrating Zipf skew to the paper's published coverage numbers.

Figure 1 reports, per workload, the fraction of hottest items that receives
80 % of accesses (ETC 3.6 %, APP 6.9 %, USR 17.0 %, YCSB 5.9 %).  The
synthetic Facebook traces reproduce those points by solving for the Zipf
skew that yields the same coverage over the scaled-down key space.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.zipfian import MAX_THETA

#: The share of accesses the paper's hottest items are measured against
#: (§2.1: Figure 1's coverage points and the base cache).
ACCESS_SHARE = 0.8


def coverage_fraction(theta: float, num_items: int) -> float:
    """Fraction of hottest items receiving ``ACCESS_SHARE`` of accesses.

    Under Zipf(theta) over ``num_items`` keys, finds the smallest k such
    that the top-k popularity mass reaches ``ACCESS_SHARE`` and returns
    ``k / num_items``.
    """
    if num_items < 1:
        raise ValueError(f"num_items must be >= 1, got {num_items}")
    weights = 1.0 / np.arange(1, num_items + 1, dtype=np.float64) ** theta
    cumulative = np.cumsum(weights)
    target = ACCESS_SHARE * cumulative[-1]
    k = int(np.searchsorted(cumulative, target, side="left")) + 1
    return min(k, num_items) / num_items


#: The bisection stops once theta is pinned this closely.
TOLERANCE = 1e-4


def calibrate_zipf_skew(num_items: int, item_fraction: float) -> float:
    """Solve for the Zipf theta whose hottest ``item_fraction`` of items
    receives ``ACCESS_SHARE`` of accesses.

    Coverage is monotonically decreasing in theta (more skew concentrates
    mass in fewer items), so a bisection suffices.  Returns the calibrated
    theta, clamped to the sampler's supported range.
    """
    if not 0.0 < item_fraction < 1.0:
        raise ValueError(f"item_fraction must be in (0, 1), got {item_fraction}")
    lo, hi = 1e-3, MAX_THETA
    if coverage_fraction(hi, num_items) > item_fraction:
        return hi
    if coverage_fraction(lo, num_items) < item_fraction:
        return lo
    while hi - lo > TOLERANCE:
        mid = (lo + hi) / 2.0
        if coverage_fraction(mid, num_items) > item_fraction:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0
