"""Figure 16 — miss ratio and throughput of the adaptation run.

A thin view over the Figure 15 run: the paper separates the allocation
timeline (Figure 15) from its performance consequences (Figure 16), and
so do the benches.  Paper result: after the uniform->Zipfian switch the
miss ratio collapses (37 % -> 5.2 %) while throughput drops only
moderately (29 M -> 24 M RPS).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.tables import format_table
from repro.experiments.common import BENCH_SCALE, Scale
from repro.experiments.fig15_adaptation import Fig15Result
from repro.experiments.fig15_adaptation import run as run_fig15

#: A phase's settled tail, averaged for its table row: its second half.
TAIL_FRACTION = 0.5


@dataclass
class Fig16Result:
    timeline: Fig15Result

    @property
    def rows(self) -> List[Tuple[float, str, float, float]]:
        return [
            (p.time, p.phase, p.miss_ratio, p.throughput)
            for p in self.timeline.points
        ]

    def table(self) -> str:
        return format_table(
            ["t (s)", "phase", "miss ratio", "RPS (millions)"],
            [
                (f"{t:.1f}", phase, f"{miss:.4f}", f"{rps / 1e6:.2f}")
                for t, phase, miss, rps in self.rows
            ],
            title="Figure 16: miss ratio and throughput over the adaptation run",
        )

    def phase_average(self, phase: str):
        """(miss ratio, throughput) averaged over a phase's settled tail:
        its last ``TAIL_FRACTION`` of points."""
        points = self.timeline.phase_points(phase)
        if not points:
            raise KeyError(phase)
        tail = points[int(len(points) * (1 - TAIL_FRACTION)) :]
        miss = sum(p.miss_ratio for p in tail) / len(tail)
        throughput = sum(p.throughput for p in tail) / len(tail)
        return miss, throughput


def run(scale: Scale = BENCH_SCALE, windows: int = 40) -> Fig16Result:
    return Fig16Result(timeline=run_fig15(scale, windows))
