"""Figure 14 — impact of the N-zone target-service threshold.

Paper result: larger thresholds give higher throughput and higher miss
ratio; as long as the threshold is large but not ~100 %, its impact is
moderate — the paper picks 90 % as the default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.common.clock import VirtualClock
from repro.core import ZExpander, ZExpanderConfig, replay_trace
from repro.experiments.common import BENCH_SCALE, Scale, base_size_of, build_trace, build_value_source
from repro.sim.costmodel import HIGH_PERFORMANCE_COSTS
from repro.sim.perfsim import PerformanceModel, mix_from_cache

DEFAULT_THRESHOLDS = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)
_REQUEST_RATE = 100_000.0


@dataclass
class Fig14Result:
    #: (threshold, RPS at 24 threads, miss ratio, final N-zone fraction)
    rows: List[Tuple[float, float, float, float]]

    def table(self) -> str:
        return format_table(
            ["threshold", "RPS (millions, 24T)", "miss ratio", "final N share"],
            [
                (f"{t:.0%}", f"{rps / 1e6:.2f}", f"{miss:.4f}", f"{share:.2f}")
                for t, rps, miss, share in self.rows
            ],
            title="Figure 14: throughput and miss ratio vs N-zone target threshold",
        )

    def series(self) -> List[Tuple[float, float, float]]:
        return [(t, rps, miss) for t, rps, miss, _share in self.rows]


def run(
    scale: Scale = BENCH_SCALE,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    threads: int = 24,
) -> Fig14Result:
    """Sweep the target threshold under §4.6's replay protocol.

    Like the Figure 15/16 experiment (the same section of the paper),
    the cache is pre-filled and GET misses are *not* demand-filled:
    misses are answered by the Content Filters cheaply, so a larger
    N-zone buys throughput at the price of miss ratio — the trade-off
    the figure is about.
    """
    model = PerformanceModel(HIGH_PERFORMANCE_COSTS)
    trace = build_trace("YCSB", scale)
    values = build_value_source("YCSB", trace, seed=scale.seed)
    capacity = int(base_size_of("YCSB", scale) * 5.0)
    duration = scale.num_requests / _REQUEST_RATE
    rows = []
    for threshold in thresholds:
        clock = VirtualClock()
        config = ZExpanderConfig(
            total_capacity=capacity,
            nzone_fraction=0.4,
            adaptive=True,
            target_service_fraction=threshold,
            window_seconds=duration / 24.0,
            marker_interval_seconds=duration / 96.0,
            seed=scale.seed,
            append_region_bytes=0,
        )
        cache = ZExpander(config, clock=clock)
        for key_id in range(trace.num_keys):
            clock.advance(1.0 / _REQUEST_RATE)
            cache.set(trace.key_bytes(key_id), values.value(key_id))
        replay = replay_trace(
            cache,
            trace,
            values,
            clock=clock,
            request_rate=_REQUEST_RATE,
            demand_fill=False,
        )
        mix = mix_from_cache(cache)
        rows.append(
            (
                threshold,
                model.throughput(mix, threads),
                replay.miss_ratio,
                cache.nzone.capacity / capacity,
            )
        )
    return Fig14Result(rows=rows)
