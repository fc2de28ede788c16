"""Figure 2 — miss-ratio curves under LRU, LIRS, and ARC.

Paper result: miss ratios fall steadily with cache size for every
algorithm; LIRS/ARC beat LRU moderately; no algorithm makes extra
capacity unnecessary.  Cache sizes here are expressed in multiples of
each workload's base cache size (the paper uses absolute GB, but its own
Table 1 normalises the same way).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.experiments.common import (
    BENCH_SCALE,
    WORKLOAD_NAMES,
    Scale,
    base_size_of,
    build_trace,
)
from repro.replacement import ARCCache, LIRSCache, LRUCache, simulate_trace

DEFAULT_MULTIPLES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)

ALGORITHMS: Dict[str, Callable[[int], object]] = {
    "LRU": LRUCache,
    "LIRS": LIRSCache,
    "ARC": ARCCache,
}


@dataclass
class Fig02Result:
    #: rows: (workload, algorithm, size multiple, cache bytes, miss ratio)
    rows: List[Tuple[str, str, float, int, float]]

    def table(self) -> str:
        return format_table(
            ["workload", "algorithm", "x base", "cache bytes", "miss ratio"],
            [(w, a, m, b, f"{r:.4f}") for w, a, m, b, r in self.rows],
            title="Figure 2: miss ratios vs cache size and replacement algorithm",
        )

    def series(self, workload: str, algorithm: str) -> List[Tuple[float, float]]:
        return [
            (multiple, ratio)
            for w, a, multiple, _bytes, ratio in self.rows
            if w == workload and a == algorithm
        ]


def run(
    scale: Scale = BENCH_SCALE,
    multiples: Sequence[float] = DEFAULT_MULTIPLES,
    workloads: Sequence[str] = WORKLOAD_NAMES,
) -> Fig02Result:
    rows = []
    for name in workloads:
        trace = build_trace(name, scale)
        base = base_size_of(name, scale)
        for algorithm_name, factory in ALGORITHMS.items():
            for multiple in multiples:
                capacity = max(1, int(base * multiple))
                stats = simulate_trace(factory(capacity), trace)
                rows.append(
                    (name, algorithm_name, multiple, capacity, stats.miss_ratio)
                )
    return Fig02Result(rows=rows)
