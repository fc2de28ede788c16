"""Shared replays for the high-performance-prototype experiments.

Figures 10, 11, and 12 report on the same runs — YCSB at three GET/SET
mixes x {H-Cache, H-zExpander} — so the grid runs once and is memoised.
H-zExpander runs with the adaptive allocator on (the H-prototype supports
online resizing, §4.1), with windows scaled to the replay's virtual
duration.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.common.clock import VirtualClock
from repro.core import SimpleKVCache, ZExpander, ZExpanderConfig, replay_trace
from repro.core.replay import ReplayStats
from repro.experiments.common import BENCH_SCALE, Scale, base_size_of, build_trace, build_value_source
from repro.nzone.hpcache import HPCacheZone
from repro.sim.perfsim import OpMix, mix_from_cache, mix_from_stats

#: The paper's Figure 10 GET/SET mixes.
DEFAULT_MIXES: Tuple[Tuple[float, float], ...] = (
    (1.0, 0.0),
    (0.95, 0.05),
    (0.5, 0.5),
)
#: 5x base ~ the paper's 60 GB-on-128 GB regime: most capacity misses are
#: avoidable, which is where the Z-zone's extra effective capacity pays.
DEFAULT_CAPACITY_MULTIPLE = 5.0
#: §3.3.1's default threshold is 90 %; the scaled-down Zipf tail is
#: fatter than the paper's 1.4-billion-key tail, which shifts the
#: demotion-rate equilibrium — 85 % reproduces the paper's operating
#: point (N-zone serving the vast majority, Z-zone holding most bytes).
DEFAULT_TARGET_FRACTION = 0.85
_REQUEST_RATE = 100_000.0


@dataclass
class HzxCell:
    """One (mix, system) replay outcome."""

    mix_label: str
    get_fraction: float
    system: str
    capacity: int
    replay: ReplayStats
    mix: OpMix


_RUN_CACHE: Dict[tuple, List[HzxCell]] = {}


def mix_label(get_fraction: float, set_fraction: float) -> str:
    return f"{get_fraction:.0%} GET / {set_fraction:.0%} SET"


def run_mixes(
    scale: Scale = BENCH_SCALE,
    mixes: Sequence[Tuple[float, float]] = DEFAULT_MIXES,
    capacity_multiple: float = DEFAULT_CAPACITY_MULTIPLE,
    nzone_fraction: float = 0.3,
    target_fraction: float = DEFAULT_TARGET_FRACTION,
    jobs: int = 1,
) -> List[HzxCell]:
    """Replay the mix grid (memoised).

    ``jobs > 1`` fans the independent (mix, system) cells across worker
    processes; cells are seeded from (scale, mix) alone, so the cell list
    is identical at any job count and the memo key excludes ``jobs``.
    """
    cache_key = (scale, tuple(mixes), capacity_multiple, nzone_fraction, target_fraction)
    cached = _RUN_CACHE.get(cache_key)
    if cached is not None:
        return cached
    specs = [
        (
            scale,
            get_fraction,
            set_fraction,
            system,
            capacity_multiple,
            nzone_fraction,
            target_fraction,
        )
        for get_fraction, set_fraction in mixes
        for system in ("H-Cache", "H-zExpander")
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            cells = list(pool.map(_mix_cell_task, specs))
    else:
        cells = [_mix_cell_task(spec) for spec in specs]
    _RUN_CACHE[cache_key] = cells
    return cells


#: One mix cell:
#: (scale, get_fraction, set_fraction, system, capacity_multiple,
#:  nzone_fraction, target_fraction).
MixCellSpec = Tuple[Scale, float, float, str, float, float, float]


def _mix_cell_task(spec: MixCellSpec) -> HzxCell:
    """Run one (mix, system) cell from its spec (picklable for workers)."""
    (
        scale,
        get_fraction,
        set_fraction,
        system,
        capacity_multiple,
        nzone_fraction,
        target_fraction,
    ) = spec
    capacity = int(base_size_of("YCSB", scale) * capacity_multiple)
    window = (scale.num_requests / _REQUEST_RATE) / 24.0
    label = mix_label(get_fraction, set_fraction)
    trace = build_trace(
        "YCSB", scale, get_fraction=get_fraction, set_fraction=set_fraction
    )
    values = build_value_source("YCSB", trace, seed=scale.seed)
    if system == "H-Cache":
        clock = VirtualClock()
        hcache = SimpleKVCache(HPCacheZone(capacity, seed=scale.seed))
        replay = replay_trace(
            hcache, trace, values, clock=clock, request_rate=_REQUEST_RATE
        )
        return HzxCell(
            mix_label=label,
            get_fraction=get_fraction,
            system="H-Cache",
            capacity=capacity,
            replay=replay,
            mix=mix_from_stats(hcache.stats),
        )
    clock = VirtualClock()
    config = ZExpanderConfig(
        total_capacity=capacity,
        nzone_fraction=nzone_fraction,
        adaptive=True,
        target_service_fraction=target_fraction,
        window_seconds=window,
        marker_interval_seconds=window / 4.0,
        seed=scale.seed,
        append_region_bytes=0,
    )
    hzx = ZExpander(config, clock=clock)
    replay = replay_trace(
        hzx, trace, values, clock=clock, request_rate=_REQUEST_RATE
    )
    return HzxCell(
        mix_label=label,
        get_fraction=get_fraction,
        system="H-zExpander",
        capacity=capacity,
        replay=replay,
        mix=mix_from_cache(hzx),
    )
