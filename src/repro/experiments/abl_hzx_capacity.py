"""Ablation — H-zExpander's miss advantage across cache sizes.

The paper shows the memcached-based comparison across sizes (Figure 5)
but evaluates the high-performance pair at one size (60 GB).  This
ablation completes the matrix: H-Cache vs H-zExpander miss ratios as the
cache grows from tail-starved to nearly-fitting, locating where the
compressed Z-zone pays most.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.common.clock import VirtualClock
from repro.core import SimpleKVCache, ZExpander, ZExpanderConfig, replay_trace
from repro.experiments.common import BENCH_SCALE, Scale, base_size_of, build_trace, build_value_source
from repro.nzone.hpcache import HPCacheZone

DEFAULT_MULTIPLES = (2.0, 3.0, 4.0, 5.0, 6.0)
_REQUEST_RATE = 100_000.0


@dataclass
class AblHzxCapacityResult:
    #: (multiple, capacity, H-Cache miss, H-zX miss, reduction, extra items)
    rows: List[Tuple[float, int, float, float, float, float]]

    def table(self) -> str:
        return format_table(
            ["x base", "bytes", "H-Cache miss", "H-zX miss", "reduction",
             "extra items"],
            [
                (m, cap, f"{hc:.4f}", f"{zx:.4f}", f"{red:.1%}", f"{extra:+.1%}")
                for m, cap, hc, zx, red, extra in self.rows
            ],
            title="Ablation: H-zExpander miss advantage vs cache size",
        )

    def reductions(self) -> List[Tuple[float, float]]:
        return [(m, red) for m, _cap, _hc, _zx, red, _extra in self.rows]


def run(
    scale: Scale = BENCH_SCALE,
    multiples: Sequence[float] = DEFAULT_MULTIPLES,
) -> AblHzxCapacityResult:
    trace = build_trace("YCSB", scale)
    values = build_value_source("YCSB", trace, seed=scale.seed)
    base = base_size_of("YCSB", scale)
    duration = scale.num_requests / _REQUEST_RATE
    rows = []
    for multiple in multiples:
        capacity = int(base * multiple)
        clock = VirtualClock()
        hcache = SimpleKVCache(HPCacheZone(capacity, seed=scale.seed))
        hc_replay = replay_trace(
            hcache, trace, values, clock=clock, request_rate=_REQUEST_RATE
        )
        clock = VirtualClock()
        config = ZExpanderConfig(
            total_capacity=capacity,
            nzone_fraction=0.3,
            adaptive=True,
            target_service_fraction=0.85,
            window_seconds=duration / 24.0,
            marker_interval_seconds=duration / 96.0,
            seed=scale.seed,
            append_region_bytes=0,
        )
        hzx = ZExpander(config, clock=clock)
        zx_replay = replay_trace(
            hzx, trace, values, clock=clock, request_rate=_REQUEST_RATE
        )
        hc_miss = hc_replay.miss_ratio
        zx_miss = zx_replay.miss_ratio
        reduction = 0.0 if hc_miss == 0 else (hc_miss - zx_miss) / hc_miss
        extra_items = (
            hzx.item_count / hcache.item_count - 1.0 if hcache.item_count else 0.0
        )
        rows.append((multiple, capacity, hc_miss, zx_miss, reduction, extra_items))
    return AblHzxCapacityResult(rows=rows)
