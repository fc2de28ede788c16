"""Shared data-plane replays for the memcached-based experiments.

Figures 5, 6, 8, and 9 all report on the same grid of runs — four
workloads x three cache sizes x {memcached, M-zExpander} — so the grid is
executed once and memoised; each figure module reads its own columns.

Scaling notes (DESIGN.md §2): cache sizes are multiples of each
workload's base cache size; slab pages shrink with the caches (64 KB
instead of memcached's 1 MB) so the slab allocator keeps meaningful
class/page behaviour at megabyte scale.  M-zExpander uses a *static*
N/Z split exactly as the paper's prototype does (§4.1 explains memcached
cannot resize online, so the authors configure sizes manually).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.clock import VirtualClock
from repro.common.units import KB
from repro.core import SimpleKVCache, ZExpander, ZExpanderConfig, replay_trace
from repro.core.replay import ReplayStats
from repro.experiments.common import (
    BENCH_SCALE,
    WORKLOAD_NAMES,
    Scale,
    base_size_of,
    build_trace,
    build_value_source,
)
from repro.nzone.memcached import MemcachedZone
from repro.sim.perfsim import OpMix, mix_from_cache, mix_from_stats

DEFAULT_MULTIPLES = (1.5, 2.0, 2.5)
#: M-zExpander's static N-zone is sized to the workload's base cache
#: (the hot set serving ~80 % of accesses), mirroring how §4.1's manual
#: configuration targets ~90 % of requests at the N-zone.
NZONE_FRACTION_BOUNDS = (0.25, 0.7)
_REQUEST_RATE = 50_000.0
_MARKER_INTERVAL = 0.5


def _page_bytes(capacity: int) -> int:
    """Slab page size scaled with the cache (memcached: 1 MB at ~60 GB)."""
    return max(4 * KB, min(64 * KB, capacity // 32))


@dataclass
class MzxCell:
    """One (workload, size, system) replay outcome."""

    workload: str
    system: str
    multiple: float
    capacity: int
    replay: ReplayStats
    mix: OpMix
    #: Uncompressed bytes of KV items resident at the end (Figure 6).
    cached_item_bytes: int
    item_count: int


_GRID_CACHE: Dict[tuple, List[MzxCell]] = {}


def _memcached_factory(capacity: int) -> MemcachedZone:
    return MemcachedZone(capacity, page_bytes=_page_bytes(capacity))


def run_grid(
    scale: Scale = BENCH_SCALE,
    multiples: Sequence[float] = DEFAULT_MULTIPLES,
    workloads: Sequence[str] = WORKLOAD_NAMES,
    nzone_fraction: Optional[float] = None,
    jobs: int = 1,
) -> List[MzxCell]:
    """Replay the full grid (memoised).

    ``nzone_fraction`` overrides the default hot-set-sized static split.
    ``jobs > 1`` fans the independent (workload x size x system) cells
    across worker processes; every cell is seeded from (scale, trace)
    alone, so the cell list is identical at any job count and the memo
    key deliberately excludes ``jobs``.
    """
    cache_key = (scale, tuple(multiples), tuple(workloads), nzone_fraction)
    cached = _GRID_CACHE.get(cache_key)
    if cached is not None:
        return cached
    if jobs > 1:
        specs = [
            (name, scale, multiple, system, nzone_fraction)
            for name in workloads
            for multiple in multiples
            for system in ("memcached", "M-zExpander")
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            cells = list(pool.map(_grid_cell_task, specs))
    else:
        cells = [
            _grid_cell_task((name, scale, multiple, system, nzone_fraction))
            for name in workloads
            for multiple in multiples
            for system in ("memcached", "M-zExpander")
        ]
    _GRID_CACHE[cache_key] = cells
    return cells


#: One grid cell: (workload, scale, multiple, system, nzone_fraction).
GridCellSpec = Tuple[str, Scale, float, str, Optional[float]]


def _grid_cell_task(spec: GridCellSpec) -> MzxCell:
    """Run one grid cell from its spec (picklable for worker processes).

    Traces and value sources are rebuilt here — memoised per process by
    ``repro.experiments.common`` — so workers never need unpicklable
    state from the parent.
    """
    name, scale, multiple, system, nzone_fraction = spec
    trace = build_trace(name, scale)
    base = base_size_of(name, scale)
    values = build_value_source(name, trace, seed=scale.seed)
    capacity = int(base * multiple)
    if system == "memcached":
        return _run_memcached(name, trace, values, capacity, multiple)
    fraction = nzone_fraction
    if fraction is None:
        low, high = NZONE_FRACTION_BOUNDS
        fraction = max(low, min(high, base / capacity))
    return _run_mzx(name, trace, values, capacity, multiple, fraction)


def _run_memcached(name, trace, values, capacity, multiple) -> MzxCell:
    clock = VirtualClock()
    cache = SimpleKVCache(MemcachedZone(capacity, page_bytes=_page_bytes(capacity)))
    replay = replay_trace(
        cache, trace, values, clock=clock, request_rate=_REQUEST_RATE
    )
    usage = cache.nzone.memory_usage()
    return MzxCell(
        workload=name,
        system="memcached",
        multiple=multiple,
        capacity=capacity,
        replay=replay,
        mix=mix_from_stats(cache.stats),
        cached_item_bytes=usage["items"],
        item_count=cache.item_count,
    )


def _run_mzx(name, trace, values, capacity, multiple, nzone_fraction) -> MzxCell:
    clock = VirtualClock()
    config = ZExpanderConfig(
        total_capacity=capacity,
        nzone_fraction=nzone_fraction,
        nzone_factory=_memcached_factory,
        adaptive=False,
        marker_interval_seconds=_MARKER_INTERVAL,
        seed=scale_seed(trace),
        append_region_bytes=0,
    )
    cache = ZExpander(config, clock=clock)
    replay = replay_trace(
        cache, trace, values, clock=clock, request_rate=_REQUEST_RATE
    )
    nzone_items = cache.nzone.memory_usage()["items"]
    zzone_items = cache.zzone.memory_usage()["uncompressed_items"]
    return MzxCell(
        workload=name,
        system="M-zExpander",
        multiple=multiple,
        capacity=capacity,
        replay=replay,
        mix=mix_from_cache(cache),
        cached_item_bytes=nzone_items + zzone_items,
        item_count=cache.item_count,
    )


def scale_seed(trace) -> int:
    """Deterministic per-trace seed for the cache's internal RNGs."""
    return sum(trace.key_prefix) * 1000003 % (1 << 31)


def cells_for(
    cells: List[MzxCell], workload: str, system: str
) -> List[MzxCell]:
    return [
        cell
        for cell in cells
        if cell.workload == workload and cell.system == system
    ]
