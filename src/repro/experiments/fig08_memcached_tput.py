"""Figure 8 — single-thread throughput, memcached vs M-zExpander.

Paper result: M-zExpander's throughput is within 4 % of memcached's in
every configuration, because memcached's ~10 µs networking path dwarfs
the Z-zone's extra work.  Throughput is computed by the calibrated cost
model from each run's *measured* operation mix (see repro.sim).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.experiments.common import BENCH_SCALE, WORKLOAD_NAMES, Scale
from repro.experiments.mzx_runs import DEFAULT_MULTIPLES, cells_for, run_grid
from repro.sim.contention import MEMCACHED_CONTENTION
from repro.sim.costmodel import MEMCACHED_COSTS
from repro.sim.perfsim import PerformanceModel


@dataclass
class Fig08Result:
    #: (workload, multiple, memcached RPS, M-zX RPS, ratio)
    rows: List[Tuple[str, float, float, float, float]]

    def table(self) -> str:
        return format_table(
            ["workload", "x base", "memcached RPS", "M-zExpander RPS", "M-zX/mc"],
            [
                (w, m, f"{mc:,.0f}", f"{zx:,.0f}", f"{ratio:.3f}")
                for w, m, mc, zx, ratio in self.rows
            ],
            title="Figure 8: single-thread throughput (modelled from measured mixes)",
        )

    def ratios(self) -> List[float]:
        return [ratio for *_rest, ratio in self.rows]


def run(
    scale: Scale = BENCH_SCALE,
    multiples: Sequence[float] = DEFAULT_MULTIPLES,
    workloads: Sequence[str] = WORKLOAD_NAMES,
) -> Fig08Result:
    model = PerformanceModel(MEMCACHED_COSTS, MEMCACHED_CONTENTION)
    cells = run_grid(scale, multiples, workloads)
    rows = []
    for name in workloads:
        for mc_cell, zx_cell in zip(
            cells_for(cells, name, "memcached"),
            cells_for(cells, name, "M-zExpander"),
        ):
            mc_rps = model.throughput(mc_cell.mix.with_lock_share(1.0), threads=1)
            zx_rps = model.throughput(zx_cell.mix.with_lock_share(1.0), threads=1)
            rows.append((name, mc_cell.multiple, mc_rps, zx_rps, zx_rps / mc_rps))
    return Fig08Result(rows=rows)
