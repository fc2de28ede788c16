"""Ablation — Z->N promotion policies.

§3.3.2's rule promotes a Z-zone item only when its measured re-use time
beats the N-zone's marker benchmark.  The two natural alternatives are
promoting on *every* Z hit (churns items through the N-zone and back) and
never promoting (hot items stay on the slow path).  This ablation runs
all three and reports miss ratio, Z-service share, and modelled
throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.tables import format_table
from repro.common.clock import VirtualClock
from repro.core import ZExpander, ZExpanderConfig, replay_trace
from repro.experiments.common import BENCH_SCALE, Scale, base_size_of, build_trace, build_value_source
from repro.sim.costmodel import HIGH_PERFORMANCE_COSTS
from repro.sim.perfsim import PerformanceModel, mix_from_cache

POLICIES = ("reuse-time", "always", "never")
_REQUEST_RATE = 100_000.0


@dataclass
class AblPromotionResult:
    #: (policy, miss ratio, promotions, demotions, N service share, RPS 24T)
    rows: List[Tuple[str, float, int, int, float, float]]

    def table(self) -> str:
        return format_table(
            ["policy", "miss ratio", "promotions", "demotions",
             "N service share", "RPS (millions, 24T)"],
            [
                (p, f"{m:.4f}", promo, demo, f"{share:.3f}", f"{rps / 1e6:.2f}")
                for p, m, promo, demo, share, rps in self.rows
            ],
            title="Ablation: Z->N promotion policy",
        )

    def row(self, policy: str):
        for row in self.rows:
            if row[0] == policy:
                return row
        raise KeyError(policy)


def run(scale: Scale = BENCH_SCALE, capacity_multiple: float = 5.0) -> AblPromotionResult:
    trace = build_trace("YCSB", scale)
    values = build_value_source("YCSB", trace, seed=scale.seed)
    capacity = int(base_size_of("YCSB", scale) * capacity_multiple)
    duration = scale.num_requests / _REQUEST_RATE
    model = PerformanceModel(HIGH_PERFORMANCE_COSTS)
    rows = []
    for policy in POLICIES:
        clock = VirtualClock()
        config = ZExpanderConfig(
            total_capacity=capacity,
            nzone_fraction=0.3,
            adaptive=False,
            promotion_policy=policy,
            marker_interval_seconds=duration / 96.0,
            seed=scale.seed,
            append_region_bytes=0,
        )
        cache = ZExpander(config, clock=clock)
        replay = replay_trace(
            cache, trace, values, clock=clock, request_rate=_REQUEST_RATE
        )
        stats = cache.stats
        rows.append(
            (
                policy,
                replay.miss_ratio,
                stats.promotions,
                stats.demotions,
                stats.nzone_service_fraction,
                model.throughput(mix_from_cache(cache), 24),
            )
        )
    return AblPromotionResult(rows=rows)
