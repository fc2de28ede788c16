"""Ablation — Access-Filter-guided sweep vs blind sweep.

§3.2's replacement sweeps blocks and evicts a random half of the items
*not recorded in the Access Filter*.  This ablation disables the filter
(the sweep then evicts blindly) and compares miss ratios, quantifying how
much of the Z-zone's retention quality comes from the filters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.tables import format_table
from repro.common.clock import VirtualClock
from repro.core import ZExpander, ZExpanderConfig, replay_trace
from repro.experiments.common import BENCH_SCALE, Scale, base_size_of, build_trace, build_value_source

_REQUEST_RATE = 100_000.0


@dataclass
class AblZReplacementResult:
    #: (variant, miss ratio, z-zone hits)
    rows: List[Tuple[str, float, int]]

    def table(self) -> str:
        return format_table(
            ["sweep variant", "miss ratio", "Z-zone hits"],
            [(name, f"{miss:.4f}", hits) for name, miss, hits in self.rows],
            title="Ablation: Access-Filter-guided vs blind Z-zone sweep",
        )

    def miss_ratio(self, variant: str) -> float:
        for name, miss, _hits in self.rows:
            if name == variant:
                return miss
        raise KeyError(variant)


def run(scale: Scale = BENCH_SCALE, capacity_multiple: float = 1.5) -> AblZReplacementResult:
    trace = build_trace("YCSB", scale)
    values = build_value_source("YCSB", trace, seed=scale.seed)
    capacity = int(base_size_of("YCSB", scale) * capacity_multiple)
    rows = []
    for name, use_access_filter in (
        ("access-filter sweep (paper)", True),
        ("blind sweep", False),
    ):
        clock = VirtualClock()
        config = ZExpanderConfig(
            total_capacity=capacity,
            nzone_fraction=0.3,
            adaptive=False,
            use_access_filter=use_access_filter,
            seed=scale.seed,
            append_region_bytes=0,
        )
        cache = ZExpander(config, clock=clock)
        replay = replay_trace(
            cache, trace, values, clock=clock, request_rate=_REQUEST_RATE
        )
        rows.append((name, replay.miss_ratio, cache.stats.get_hits_zzone))
    return AblZReplacementResult(rows=rows)
