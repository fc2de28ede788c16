"""Figure 1 — access CDF curves of the four workloads.

Paper result: all four workloads are long-tailed; the 3.6 % (ETC), 6.9 %
(APP), 17.0 % (USR), and 5.9 % (YCSB) most frequently accessed items
receive 80 % of total accesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.cdf import access_cdf, coverage_point
from repro.analysis.tables import format_table
from repro.experiments.common import BENCH_SCALE, WORKLOAD_NAMES, Scale, build_trace

#: The paper's Figure 1 headline points for comparison in the output.
PAPER_COVERAGE = {"ETC": 0.036, "APP": 0.069, "USR": 0.170, "YCSB": 0.059}


@dataclass
class Fig01Result:
    rows: List[Tuple[str, float, float]]
    curves: Dict[str, List[Tuple[float, float]]]

    def table(self) -> str:
        return format_table(
            ["workload", "items for 80% accesses (measured)", "paper"],
            [
                (name, f"{measured:.1%}", f"{paper:.1%}")
                for name, measured, paper in self.rows
            ],
            title="Figure 1: long-tail coverage (fraction of hottest items "
            "receiving 80% of accesses)",
        )


def run(scale: Scale = BENCH_SCALE, requests_per_key: int = 40) -> Fig01Result:
    """Measure coverage on long traces.

    Empirical coverage only converges to the distribution's coverage when
    each key is sampled many times, so this figure replays
    ``requests_per_key`` times the key count rather than the default
    request budget (the paper's traces span billions of requests).
    """
    cdf_scale = Scale(
        num_keys=max(1000, scale.num_keys // 4),
        num_requests=max(1000, scale.num_keys // 4) * requests_per_key,
        seed=scale.seed,
    )
    rows = []
    curves = {}
    for name in WORKLOAD_NAMES:
        trace = build_trace(name, cdf_scale)
        measured = coverage_point(trace)
        rows.append((name, measured, PAPER_COVERAGE[name]))
        curves[name] = access_cdf(trace, points=100)
    return Fig01Result(rows=rows, curves=curves)
