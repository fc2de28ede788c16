"""Figure 11 — request processing time CDFs at high thread counts.

Paper result: H-Cache is faster at low percentiles (cheaper median
request) but H-zExpander wins the tail — 4.0 µs vs 4.6 µs at the 99th
percentile with 24 threads — because diverting ~10 % of requests to the
Z-zone relieves N-zone lock contention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.experiments.common import BENCH_SCALE, Scale
from repro.experiments.hzx_runs import DEFAULT_MIXES, run_mixes
from repro.sim.costmodel import HIGH_PERFORMANCE_COSTS
from repro.sim.latency import LatencyModel

DEFAULT_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


@dataclass
class Fig11Result:
    #: (mix label, system, percentile, microseconds)
    rows: List[Tuple[str, str, float, float]]

    def table(self) -> str:
        return format_table(
            ["mix", "system", "percentile", "latency (us)"],
            [(label, s, q, f"{us:.2f}") for label, s, q, us in self.rows],
            title="Figure 11: request processing time CDF points (24 threads)",
        )

    def at(self, label: str, system: str, percentile: float) -> float:
        for row_label, row_system, q, us in self.rows:
            if (row_label, row_system, q) == (label, system, percentile):
                return us
        raise KeyError((label, system, percentile))


def run(
    scale: Scale = BENCH_SCALE,
    mixes: Sequence[Tuple[float, float]] = DEFAULT_MIXES,
    threads: int = 24,
    percentiles: Sequence[float] = DEFAULT_PERCENTILES,
    samples: int = 200_000,
) -> Fig11Result:
    model = LatencyModel(HIGH_PERFORMANCE_COSTS, seed=scale.seed)
    cells = run_mixes(scale, mixes)
    rows = []
    for cell in cells:
        for q, seconds in model.cdf_points(
            cell.mix, threads, count=samples, points=percentiles
        ):
            rows.append((cell.mix_label, cell.system, q, seconds * 1e6))
    return Fig11Result(rows=rows)
