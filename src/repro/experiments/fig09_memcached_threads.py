"""Figure 9 — memcached-based throughput vs thread count (YCSB).

Paper result: memcached's networking bottleneck caps scaling well below
700 K RPS at 24 threads; M-zExpander tracks it within a few percent at
every thread count and cache size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.experiments.common import BENCH_SCALE, Scale
from repro.experiments.mzx_runs import DEFAULT_MULTIPLES, cells_for, run_grid
from repro.sim.contention import MEMCACHED_CONTENTION
from repro.sim.costmodel import MEMCACHED_COSTS
from repro.sim.perfsim import PerformanceModel

DEFAULT_THREADS = (1, 2, 4, 8, 12, 16, 20, 24)


@dataclass
class Fig09Result:
    #: (x base, system, threads, RPS)
    rows: List[Tuple[float, str, int, float]]

    def table(self) -> str:
        return format_table(
            ["x base", "system", "threads", "RPS"],
            [(m, s, t, f"{rps:,.0f}") for m, s, t, rps in self.rows],
            title="Figure 9: memcached-based throughput vs threads (YCSB)",
        )

    def series(self, multiple: float, system: str) -> List[Tuple[int, float]]:
        return [
            (threads, rps)
            for m, s, threads, rps in self.rows
            if m == multiple and s == system
        ]


def run(
    scale: Scale = BENCH_SCALE,
    multiples: Sequence[float] = DEFAULT_MULTIPLES,
    threads: Sequence[int] = DEFAULT_THREADS,
) -> Fig09Result:
    model = PerformanceModel(MEMCACHED_COSTS, MEMCACHED_CONTENTION)
    # Use the full default grid (shared/memoised with Figures 5-8) and
    # read out the YCSB rows.
    cells = run_grid(scale, multiples)
    rows = []
    for system in ("memcached", "M-zExpander"):
        for cell in cells_for(cells, "YCSB", system):
            for thread_count in threads:
                rows.append(
                    (
                        cell.multiple,
                        system,
                        thread_count,
                        model.throughput(cell.mix.with_lock_share(1.0), thread_count),
                    )
                )
    return Fig09Result(rows=rows)
