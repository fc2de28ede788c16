"""Figure 10 — H-Cache vs H-zExpander throughput vs thread count.

Paper result: peak ~33 M RPS (all-GET); H-zExpander runs 10–15 % below
H-Cache at low thread counts but (almost) catches up beyond ~20 threads,
because threads doing Z-zone work relieve N-zone lock contention.  More
SETs lower both systems' throughput without changing the relative trend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.experiments.common import BENCH_SCALE, Scale
from repro.experiments.hzx_runs import DEFAULT_MIXES, mix_label, run_mixes
from repro.sim.costmodel import HIGH_PERFORMANCE_COSTS
from repro.sim.perfsim import PerformanceModel

DEFAULT_THREADS = (1, 2, 4, 8, 12, 16, 20, 24)


@dataclass
class Fig10Result:
    #: (mix label, system, threads, RPS)
    rows: List[Tuple[str, str, int, float]]

    def table(self) -> str:
        return format_table(
            ["mix", "system", "threads", "RPS (millions)"],
            [(label, s, t, f"{rps / 1e6:.2f}") for label, s, t, rps in self.rows],
            title="Figure 10: high-performance cache throughput vs threads",
        )

    def series(self, label: str, system: str) -> List[Tuple[int, float]]:
        return [
            (threads, rps)
            for row_label, row_system, threads, rps in self.rows
            if row_label == label and row_system == system
        ]


def run(
    scale: Scale = BENCH_SCALE,
    mixes: Sequence[Tuple[float, float]] = DEFAULT_MIXES,
    threads: Sequence[int] = DEFAULT_THREADS,
) -> Fig10Result:
    model = PerformanceModel(HIGH_PERFORMANCE_COSTS)
    cells = run_mixes(scale, mixes)
    rows = []
    for cell in cells:
        for thread_count in threads:
            rows.append(
                (
                    cell.mix_label,
                    cell.system,
                    thread_count,
                    model.throughput(cell.mix, thread_count),
                )
            )
    return Fig10Result(rows=rows)
