"""Figure 13 — Content Filters' effect on GET-miss throughput.

Paper result: with GET-only workloads at 50 %/75 %/100 % miss ratios, the
filters raise throughput substantially (up to 64 % at 5 threads and 100 %
misses); the filters' false-positive ratio stays around 5 %, so ~95 % of
misses avoid block decompression.  Higher miss ratios still mean lower
absolute throughput even with filters, since misses never hit the fast
N-zone path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.analysis.tables import format_table
from repro.common.clock import VirtualClock
from repro.common.rng import derive_seed
from repro.core import ZExpander, ZExpanderConfig
from repro.core.stats import ZExpanderStats
from repro.experiments.common import BENCH_SCALE, Scale, base_size_of, build_trace, build_value_source
from repro.analysis.tables import format_table
from repro.sim.costmodel import HIGH_PERFORMANCE_COSTS
from repro.sim.perfsim import PerformanceModel, mix_from_cache

DEFAULT_MISS_RATIOS = (0.5, 0.75, 1.0)
DEFAULT_THREADS = (1, 5, 10, 20)


@dataclass
class Fig13Result:
    #: (miss ratio, filters?, threads, RPS)
    rows: List[Tuple[float, bool, int, float]]
    #: Measured false-positive fraction of filter-answered lookups.
    false_positive_ratio: float

    def table(self) -> str:
        body = [
            (f"{miss:.0%}", "on" if filters else "off", threads, f"{rps / 1e6:.2f}")
            for miss, filters, threads, rps in self.rows
        ]
        title = (
            "Figure 13: throughput with/without Content Filters "
            f"(measured FP ratio {self.false_positive_ratio:.1%})"
        )
        return format_table(
            ["miss ratio", "filters", "threads", "RPS (millions)"], body, title
        )

    def gain(self, miss_ratio: float, threads: int) -> float:
        on = off = None
        for miss, filters, row_threads, rps in self.rows:
            if (miss, row_threads) == (miss_ratio, threads):
                if filters:
                    on = rps
                else:
                    off = rps
        if on is None or off is None:
            raise KeyError((miss_ratio, threads))
        return on / off - 1.0


def _run_one(
    scale: Scale, miss_ratio: float, use_filter: bool
) -> Tuple[ZExpander, ZExpanderStats]:
    """Pre-fill a cache, then drive GET-only traffic at ``miss_ratio``."""
    trace = build_trace("YCSB", scale)
    values = build_value_source("YCSB", trace, seed=scale.seed)
    capacity = int(base_size_of("YCSB", scale) * 4.0)
    clock = VirtualClock()
    config = ZExpanderConfig(
        total_capacity=capacity,
        nzone_fraction=0.3,
        adaptive=False,
        use_content_filter=use_filter,
        seed=scale.seed,
        append_region_bytes=0,
    )
    cache = ZExpander(config, clock=clock)
    # Pre-fill: SET enough hot keys to fill the cache, most spilling to Z.
    fill_count = min(trace.num_keys, scale.num_requests // 4)
    for key_id in range(fill_count):
        clock.advance(1e-5)
        cache.set(trace.key_bytes(key_id), values.value(key_id))
    # Measurement: GET-only; absent keys come from a disjoint id range
    # rendered with a different prefix so they can never hit.
    rng = np.random.default_rng(derive_seed(scale.seed, f"fig13-{miss_ratio}"))
    baseline = cache.stats.snapshot()
    probes = scale.num_requests // 4
    missing_draws = rng.random(probes) < miss_ratio
    present_ids = rng.integers(0, fill_count, size=probes)
    for i in range(probes):
        clock.advance(1e-5)
        if missing_draws[i]:
            cache.get(b"missing:%012d" % int(present_ids[i]))
        else:
            cache.get(trace.key_bytes(int(present_ids[i])))
    return cache, cache.stats.delta(baseline)


def run(
    scale: Scale = BENCH_SCALE,
    miss_ratios: Sequence[float] = DEFAULT_MISS_RATIOS,
    threads: Sequence[int] = DEFAULT_THREADS,
) -> Fig13Result:
    model = PerformanceModel(HIGH_PERFORMANCE_COSTS)
    rows = []
    fp_ratio = 0.0
    for miss_ratio in miss_ratios:
        for use_filter in (True, False):
            cache, window = _run_one(scale, miss_ratio, use_filter)
            mix = mix_from_cache(cache, window)
            if use_filter and miss_ratio == miss_ratios[-1]:
                zstats = cache.zzone.stats
                answered = zstats.filter_skips + zstats.false_positives
                fp_ratio = (
                    zstats.false_positives / answered if answered else 0.0
                )
            for thread_count in threads:
                rows.append(
                    (
                        miss_ratio,
                        use_filter,
                        thread_count,
                        model.throughput(mix, thread_count),
                    )
                )
    return Fig13Result(rows=rows, false_positive_ratio=fp_ratio)
