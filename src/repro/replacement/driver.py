"""Trace replay against policy simulators.

Replays a compact trace through an :class:`EvictingCache` and reports miss
statistics under the paper's accounting rules:

* SET requests always count as hits (footnote 2);
* GET misses trigger a demand fill (the client re-fetches from the backing
  store and writes the item back);
* DELETE requests remove the item and are excluded from the miss ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.replacement.base import EvictingCache
from repro.workloads.trace import OP_DELETE, OP_GET, OP_SET, Trace

#: The paper warms each cache on the first fifth of its trace.
WARMUP_FRACTION = 0.2


@dataclass
class MissStats:
    """Outcome of one trace replay (measurement portion only)."""

    gets: int = 0
    get_misses: int = 0
    sets: int = 0
    deletes: int = 0

    @property
    def requests(self) -> int:
        return self.gets + self.sets + self.deletes

    @property
    def miss_ratio(self) -> float:
        """Misses over GET+SET requests, with every SET counted as a hit."""
        denominator = self.gets + self.sets
        if denominator == 0:
            return 0.0
        return self.get_misses / denominator

    @property
    def misses(self) -> int:
        return self.get_misses


def simulate_trace(cache: EvictingCache, trace: Trace) -> MissStats:
    """Replay ``trace`` through ``cache``; measure after the warmup prefix.

    An item's size is its key + value bytes: Section 2's simulations
    charge only KV-item payloads, no per-item header.
    """
    warmup_requests = int(len(trace) * WARMUP_FRACTION)
    key_len = len(trace.key_prefix) + 12
    stats = MissStats()
    for position, (op, key, value_size) in enumerate(trace):
        size = key_len + value_size
        measuring = position >= warmup_requests
        if op == OP_GET:
            hit = cache.access(key, size)
            if measuring:
                stats.gets += 1
                if not hit:
                    stats.get_misses += 1
        elif op == OP_SET:
            cache.access(key, size)
            if measuring:
                stats.sets += 1
        elif op == OP_DELETE:
            cache.delete(key)
            if measuring:
                stats.deletes += 1
    return stats
