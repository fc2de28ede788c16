"""Base-cache sizing (§2.1).

The paper defines a workload's *base cache* as the smallest cache holding
the set of most-frequently-accessed items that serve 80 % of accesses,
and reports all of Table 1's cache sizes as multiples of it.
"""

from __future__ import annotations

import numpy as np

from repro.workloads import calibration
from repro.workloads.trace import Trace


def base_cache_size(trace: Trace) -> int:
    """Bytes of KV items needed to cover ``ACCESS_SHARE`` of accesses.

    Sizes follow the trace's recorded key+value sizes; metadata is
    excluded, exactly as in the paper's Figure 2 footnote.
    """
    counts = trace.access_counts()
    if not counts:
        return 0
    sizes = trace.key_sizes()
    ordered = sorted(counts.items(), key=lambda kv: -kv[1])
    access_counts = np.array([count for _key, count in ordered], dtype=np.float64)
    cumulative = np.cumsum(access_counts)
    target = calibration.ACCESS_SHARE * cumulative[-1]
    cutoff = int(np.searchsorted(cumulative, target, side="left")) + 1
    return sum(sizes.get(key, 0) for key, _count in ordered[:cutoff])
