"""Figure 5 — miss ratios of memcached vs M-zExpander.

Paper result: M-zExpander substantially reduces miss ratio at every cache
size, by up to 46 % (USR); the reduction is consistent across the
selected cache sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.experiments.common import BENCH_SCALE, WORKLOAD_NAMES, Scale
from repro.experiments.mzx_runs import DEFAULT_MULTIPLES, cells_for, run_grid


@dataclass
class Fig05Result:
    #: (workload, multiple, capacity, memcached miss, M-zX miss, reduction)
    rows: List[Tuple[str, float, int, float, float, float]]

    def table(self) -> str:
        return format_table(
            ["workload", "x base", "bytes", "memcached", "M-zExpander", "reduction"],
            [
                (w, m, cap, f"{mc:.4f}", f"{zx:.4f}", f"{red:.1%}")
                for w, m, cap, mc, zx, red in self.rows
            ],
            title="Figure 5: miss ratio, memcached vs M-zExpander",
        )

    def reductions(self, workload: str) -> List[float]:
        return [red for w, *_rest, red in self.rows if w == workload]


def run(
    scale: Scale = BENCH_SCALE,
    multiples: Sequence[float] = DEFAULT_MULTIPLES,
    workloads: Sequence[str] = WORKLOAD_NAMES,
) -> Fig05Result:
    cells = run_grid(scale, multiples, workloads)
    rows = []
    for name in workloads:
        memcached_cells = cells_for(cells, name, "memcached")
        mzx_cells = cells_for(cells, name, "M-zExpander")
        for mc_cell, zx_cell in zip(memcached_cells, mzx_cells):
            mc_miss = mc_cell.replay.miss_ratio
            zx_miss = zx_cell.replay.miss_ratio
            reduction = 0.0 if mc_miss == 0 else (mc_miss - zx_miss) / mc_miss
            rows.append(
                (
                    name,
                    mc_cell.multiple,
                    mc_cell.capacity,
                    mc_miss,
                    zx_miss,
                    reduction,
                )
            )
    return Fig05Result(rows=rows)
