"""Figure 6 — uncompressed size of cached KV items.

Paper result: for each Figure 5 configuration, M-zExpander holds
substantially more KV-item bytes than memcached in the same memory (e.g.
USR grows cached data by 42–63 %) — the mechanism behind the miss-ratio
reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.experiments.common import BENCH_SCALE, WORKLOAD_NAMES, Scale
from repro.experiments.mzx_runs import DEFAULT_MULTIPLES, cells_for, run_grid


@dataclass
class Fig06Result:
    #: (workload, multiple, capacity, memcached bytes, M-zX bytes, increase)
    rows: List[Tuple[str, float, int, int, int, float]]

    def table(self) -> str:
        return format_table(
            ["workload", "x base", "cache bytes", "memcached items",
             "M-zExpander items", "increase"],
            [
                (w, m, cap, mc, zx, f"{inc:+.1%}")
                for w, m, cap, mc, zx, inc in self.rows
            ],
            title="Figure 6: uncompressed bytes of cached KV items",
        )

    def increases(self, workload: str) -> List[float]:
        return [inc for w, *_rest, inc in self.rows if w == workload]


def run(
    scale: Scale = BENCH_SCALE,
    multiples: Sequence[float] = DEFAULT_MULTIPLES,
    workloads: Sequence[str] = WORKLOAD_NAMES,
) -> Fig06Result:
    cells = run_grid(scale, multiples, workloads)
    rows = []
    for name in workloads:
        for mc_cell, zx_cell in zip(
            cells_for(cells, name, "memcached"),
            cells_for(cells, name, "M-zExpander"),
        ):
            increase = (
                (zx_cell.cached_item_bytes - mc_cell.cached_item_bytes)
                / mc_cell.cached_item_bytes
                if mc_cell.cached_item_bytes
                else 0.0
            )
            rows.append(
                (
                    name,
                    mc_cell.multiple,
                    mc_cell.capacity,
                    mc_cell.cached_item_bytes,
                    zx_cell.cached_item_bytes,
                    increase,
                )
            )
    return Fig06Result(rows=rows)
