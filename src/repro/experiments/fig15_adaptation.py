"""Figures 15 & 16 — adaptive allocation under an access-pattern change.

The workload starts uniform (no locality: the controller gives the
N-zone its maximum share and the cache holds mostly uncompressed data,
with high miss ratio and high throughput) and switches to Zipfian, after
which the controller shifts space to the Z-zone: cached data grows,
miss ratio collapses, and throughput dips only moderately.

One run produces both figures' series: per-window N/Z data sizes
(Figure 15) and per-window miss ratio + modelled throughput (Figure 16).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.tables import format_table
from repro.common.clock import VirtualClock
from repro.common.rng import derive_seed
from repro.core import ZExpander, ZExpanderConfig, replay_trace
from repro.experiments.common import BENCH_SCALE, Scale, base_size_of
from repro.sim.costmodel import HIGH_PERFORMANCE_COSTS
from repro.sim.perfsim import PerformanceModel, mix_from_stats
from repro.workloads.synth import KeySizeAssigner, synthesize_trace
from repro.workloads.trace import concat_traces
from repro.workloads.uniform import UniformGenerator
from repro.workloads.values import PlacesValueGenerator, SizedValueSource
from repro.workloads.zipfian import ZipfianGenerator

_REQUEST_RATE = 100_000.0


@dataclass
class TimelinePoint:
    """One sampling window of the adaptation run."""

    time: float
    phase: str
    nzone_kv_bytes: int
    zzone_kv_bytes: int  # uncompressed size of Z-zone contents
    nzone_capacity: int
    zzone_capacity: int
    miss_ratio: float
    throughput: float


@dataclass
class Fig15Result:
    points: List[TimelinePoint]
    capacity: int
    switch_time: float

    def table(self) -> str:
        return format_table(
            ["t (s)", "phase", "N KV bytes", "Z KV bytes", "total KV",
             "miss ratio", "RPS (millions)"],
            [
                (
                    f"{p.time:.1f}",
                    p.phase,
                    p.nzone_kv_bytes,
                    p.zzone_kv_bytes,
                    p.nzone_kv_bytes + p.zzone_kv_bytes,
                    f"{p.miss_ratio:.4f}",
                    f"{p.throughput / 1e6:.2f}",
                )
                for p in self.points
            ],
            title="Figures 15/16: adaptation timeline (uniform -> Zipfian at "
            f"t={self.switch_time:.1f}s)",
        )

    def phase_points(self, phase: str) -> List[TimelinePoint]:
        return [p for p in self.points if p.phase == phase]


def _build_phased_trace(scale: Scale) -> Tuple[object, int]:
    half = scale.num_requests // 2
    uniform = synthesize_trace(
        name="uniform-phase",
        num_requests=half,
        num_keys=scale.num_keys,
        rank_generator=UniformGenerator(
            scale.num_keys, seed=derive_seed(scale.seed, "adapt-uniform")
        ),
        size_assigner=KeySizeAssigner(
            seed=derive_seed(scale.seed, "adapt-sizes"),
            value_generator=PlacesValueGenerator(
                seed=derive_seed(scale.seed, "values")
            ),
        ),
        get_fraction=0.95,
        set_fraction=0.05,
        seed=derive_seed(scale.seed, "adapt-u"),
        key_prefix=b"ycsb:",
    )
    zipf = synthesize_trace(
        name="zipf-phase",
        num_requests=scale.num_requests - half,
        num_keys=scale.num_keys,
        rank_generator=ZipfianGenerator(
            scale.num_keys, theta=0.99, seed=derive_seed(scale.seed, "adapt-zipf")
        ),
        size_assigner=KeySizeAssigner(
            seed=derive_seed(scale.seed, "adapt-sizes"),
            value_generator=PlacesValueGenerator(
                seed=derive_seed(scale.seed, "values")
            ),
        ),
        get_fraction=0.95,
        set_fraction=0.05,
        seed=derive_seed(scale.seed, "adapt-z"),
        key_prefix=b"ycsb:",
    )
    return concat_traces("uniform-then-zipf", [uniform, zipf]), half


def run(
    scale: Scale = BENCH_SCALE,
    windows: int = 40,
    capacity_multiple: float = 5.0,
    target_fraction: float = 0.90,
) -> Fig15Result:
    """Run the phased workload, reproducing §4.6's setup.

    Exactly as in the paper, the cache is *pre-filled* ("we write about
    24 GB KV items to the N-zone and the rest to fill the Z-zone") and
    the replay does **not** demand-fill GET misses — misses are answered
    by the Content Filters and stay cheap, which is what lets the
    uniform phase run at high throughput despite its high miss ratio.
    Under those conditions the zone traffic that drives the controller
    is Z-zone *hits* plus SET-driven demotions, and the paper's 90 %
    target yields both equilibria: N-zone at maximum under uniform
    access, and a large Z-zone under Zipfian.
    """
    trace, switch_at = _build_phased_trace(scale)
    # The phased trace shares the YCSB key space/prefix, but sizes come
    # from its own assigner; bind a sized source to this trace.
    values = SizedValueSource(
        trace, PlacesValueGenerator(seed=derive_seed(scale.seed, "values"))
    )
    capacity = int(base_size_of("YCSB", scale) * capacity_multiple)
    duration = len(trace) / _REQUEST_RATE
    window_seconds = duration / windows
    clock = VirtualClock()
    config = ZExpanderConfig(
        total_capacity=capacity,
        nzone_fraction=0.4,
        adaptive=True,
        target_service_fraction=target_fraction,
        window_seconds=window_seconds,
        marker_interval_seconds=window_seconds / 4.0,
        seed=scale.seed,
        append_region_bytes=0,
    )
    cache = ZExpander(config, clock=clock)
    # Pre-fill to capacity: SETs land in the N-zone and spill into the
    # Z-zone, mirroring the paper's initial 24 GB/36 GB layout.
    for key_id in range(trace.num_keys):
        clock.advance(1.0 / _REQUEST_RATE)
        cache.set(trace.key_bytes(key_id), values.value(key_id))
    model = PerformanceModel(HIGH_PERFORMANCE_COSTS)

    points: List[TimelinePoint] = []
    sample_every = max(1, len(trace) // windows)
    last_snapshot = cache.stats.snapshot()

    def on_request(position: int, _op: int) -> None:
        nonlocal last_snapshot
        if (position + 1) % sample_every != 0:
            return
        window_stats = cache.stats.delta(last_snapshot)
        last_snapshot = cache.stats.snapshot()
        try:
            mix = mix_from_stats(window_stats)
            throughput = model.throughput(mix, threads=24)
        except ValueError:
            throughput = 0.0
        points.append(
            TimelinePoint(
                time=clock.now(),
                phase="uniform" if position < switch_at else "zipfian",
                nzone_kv_bytes=cache.nzone.memory_usage()["items"],
                zzone_kv_bytes=cache.zzone.memory_usage()["uncompressed_items"],
                nzone_capacity=cache.nzone.capacity,
                zzone_capacity=cache.zzone.capacity,
                miss_ratio=window_stats.miss_ratio,
                throughput=throughput,
            )
        )

    replay_trace(
        cache,
        trace,
        values,
        clock=clock,
        request_rate=_REQUEST_RATE,
        warmup_fraction=0.0,
        demand_fill=False,
        on_request=on_request,
    )
    return Fig15Result(
        points=points,
        capacity=capacity,
        switch_time=switch_at / _REQUEST_RATE,
    )
