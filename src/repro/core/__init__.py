"""zExpander's core: two-zone cache management (§3).

:class:`ZExpander` composes any :class:`~repro.nzone.base.NZone` with a
:class:`~repro.zzone.zzone.ZZone` and implements the paper's glue policies:
N-first request routing, eviction spill N→Z, marker-based locality
benchmarking, re-use-time promotion Z→N, postponed removal of stale Z
versions, and adaptive space allocation between the zones.
"""

from repro.core.adaptive import AdaptiveAllocator, AllocationAction
from repro.core.config import ZExpanderConfig
from repro.core.marker import LocalityBenchmark
from repro.core.sharded import ShardedZExpander
from repro.core.simple import SimpleKVCache
from repro.core.snapshot import load_snapshot, write_snapshot
from repro.core.stats import ZExpanderStats
from repro.core.zexpander import ZExpander


def __getattr__(name: str):
    # ``replay`` imports the workload generators and numpy, which a
    # serving process never needs: load it when first asked for.
    if name in ("ReplayStats", "replay_trace"):
        from repro.core import replay

        return getattr(replay, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AdaptiveAllocator",
    "AllocationAction",
    "LocalityBenchmark",
    "ReplayStats",
    "ShardedZExpander",
    "SimpleKVCache",
    "ZExpander",
    "ZExpanderConfig",
    "ZExpanderStats",
    "load_snapshot",
    "replay_trace",
    "write_snapshot",
]
