"""Figure 12 — miss rate (misses per second) of the Figure 10 runs.

Paper result: H-zExpander removes 30–40 % of misses per second despite
its 10–15 % lower throughput — the reduction in miss *ratio* outweighs
the throughput loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.experiments.common import BENCH_SCALE, Scale
from repro.experiments.hzx_runs import DEFAULT_MIXES, run_mixes
from repro.sim.costmodel import HIGH_PERFORMANCE_COSTS
from repro.sim.perfsim import PerformanceModel

DEFAULT_THREADS = (1, 4, 8, 16, 24)


@dataclass
class Fig12Result:
    #: (mix label, system, threads, miss ratio, misses/second)
    rows: List[Tuple[str, str, int, float, float]]

    def table(self) -> str:
        return format_table(
            ["mix", "system", "threads", "miss ratio", "misses/s (millions)"],
            [
                (label, s, t, f"{ratio:.4f}", f"{rate / 1e6:.3f}")
                for label, s, t, ratio, rate in self.rows
            ],
            title="Figure 12: miss rate of the high-performance systems",
        )

    def series(self, label: str, system: str) -> List[Tuple[int, float]]:
        return [
            (threads, rate)
            for row_label, row_system, threads, _ratio, rate in self.rows
            if row_label == label and row_system == system
        ]


def run(
    scale: Scale = BENCH_SCALE,
    mixes: Sequence[Tuple[float, float]] = DEFAULT_MIXES,
    threads: Sequence[int] = DEFAULT_THREADS,
) -> Fig12Result:
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
                    cell.mix.miss_ratio,
                    model.miss_rate(cell.mix, thread_count),
                )
            )
    return Fig12Result(rows=rows)
