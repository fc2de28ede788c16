"""Table 1 — misses removed by larger caches and better algorithms.

Paper result: with LRU-X at base size as the reference, growing the cache
keeps removing a large share of misses at every multiple (e.g. ETC loses
24–45 % of misses from x1.5 to x3.0 under LRU-X alone), while
locality-aware algorithms add only a moderate further reduction — the
argument that *capacity*, not cleverness, is the lever worth pulling.
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
from repro.replacement import (
    ARCCache,
    LIRSCache,
    LRUCache,
    LRUXCache,
    simulate_trace,
)

DEFAULT_MULTIPLES = (1.0, 1.5, 2.0, 2.5, 3.0)


@dataclass
class Tab01Result:
    #: (workload, base size bytes, reference miss count)
    references: List[Tuple[str, int, int]]
    #: (workload, algorithm, multiple, miss count, removed vs reference)
    rows: List[Tuple[str, str, float, int, float]]

    def table(self) -> str:
        lines = []
        for workload, base, reference in self.references:
            lines.append(
                f"{workload}: base size {base} B, reference misses "
                f"(LRU-X @ x1.0) = {reference}"
            )
        body = format_table(
            ["workload", "algorithm", "x base", "misses", "removed"],
            [
                (w, a, m, c, f"{removed:+.2%}")
                for w, a, m, c, removed in self.rows
            ],
            title="Table 1: misses removed vs LRU-X at base cache size",
        )
        return "\n".join(lines) + "\n" + body

    def removed(self, workload: str, algorithm: str, multiple: float) -> float:
        for w, a, m, _count, removed in self.rows:
            if (w, a, m) == (workload, algorithm, multiple):
                return removed
        raise KeyError((workload, algorithm, multiple))


def run(
    scale: Scale = BENCH_SCALE,
    multiples: Sequence[float] = DEFAULT_MULTIPLES,
    workloads: Sequence[str] = WORKLOAD_NAMES,
) -> Tab01Result:
    references = []
    rows = []
    for name in workloads:
        trace = build_trace(name, scale)
        base = base_size_of(name, scale)
        algorithms: Dict[str, Callable[[int], object]] = {
            "LRU-X": lambda cap, base=base: LRUXCache(
                cap, base_capacity=min(base, cap), seed=scale.seed
            ),
            "LRU": LRUCache,
            "LIRS": LIRSCache,
            "ARC": ARCCache,
        }
        reference_misses = None
        for algorithm_name, factory in algorithms.items():
            for multiple in multiples:
                capacity = max(1, int(base * multiple))
                stats = simulate_trace(factory(capacity), trace)
                if reference_misses is None:
                    # First cell computed is LRU-X at x1.0: the reference.
                    reference_misses = max(1, stats.misses)
                    references.append((name, base, stats.misses))
                removed = -(reference_misses - stats.misses) / reference_misses
                rows.append((name, algorithm_name, multiple, stats.misses, removed))
    return Tab01Result(references=references, rows=rows)
