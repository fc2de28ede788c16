"""Figure 7's memory-usage comparison machinery.

Three 60 GB (scaled) caches are filled to capacity with the same item
stream and their byte breakdowns compared:

* stock memcached — slab chunks, item headers, hash table;
* memcached storing *individually compressed* values — same metadata,
  slightly smaller payloads (§4.3: "only 13.5 % more KV items are cached,
  and metadata cannot be reduced at all");
* a Z-zone-only zExpander — batched compression, trie index, per-block
  filters.

Each breakdown also reports the *uncompressed* size of the cached KV
items ("Size of KV Items" in Figures 6–7): the measure of how much data a
cache effectively holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.compression.base import Compressor
from repro.memory import malloc
from repro.nzone.memcached import MemcachedZone
from repro.zzone.zzone import ZZone

#: Yields (key, value) pairs to fill a cache with.
ItemStream = Iterator[Tuple[bytes, bytes]]


@dataclass(frozen=True)
class UsageBreakdown:
    """One bar-pair of Figure 7."""

    label: str
    capacity: int
    items: int  # bytes holding (possibly compressed) KV payload
    metadata: int
    other: int  # fragmentation / free space inside the footprint
    uncompressed_items: int  # the payload's uncompressed size
    item_count: int

    @property
    def total(self) -> int:
        return self.items + self.metadata + self.other

    def fraction(self, field: str) -> float:
        return getattr(self, field) / self.total if self.total else 0.0


def fill_memcached(
    zone: MemcachedZone,
    stream: ItemStream,
    value_codec: Optional[Compressor] = None,
) -> Tuple[int, int]:
    """SET items until the zone starts evicting (it is then full).

    With ``value_codec``, values are individually compressed before the
    SET — the middle bars of Figure 7.  Returns (uncompressed payload
    bytes resident, item count); eviction-aware: items pushed out are
    subtracted.
    """
    uncompressed = {}
    for key, value in stream:
        stored = value
        if value_codec is not None:
            stored = value_codec.compress(value).payload
        evicted = zone.set(key, stored)
        uncompressed[key] = len(key) + len(value)
        saw_eviction = False
        for item in evicted:
            uncompressed.pop(item.key, None)
            if item.key != key:
                saw_eviction = True
        if saw_eviction:
            break
    return sum(uncompressed.values()), len(uncompressed)


def fill_zzone(zone: ZZone, stream: ItemStream) -> Tuple[int, int]:
    """PUT items until the Z-zone starts evicting."""
    uncompressed = {}
    count_before = 0
    for key, value in stream:
        zone.put(key, value)
        uncompressed[key] = len(key) + len(value)
        if zone.stats.evicted_items > 0:
            break
    usage = zone.memory_usage()
    return usage["uncompressed_items"], zone.item_count


def breakdown_memcached(
    zone: MemcachedZone, uncompressed_items: int, label: str = "memcached"
) -> UsageBreakdown:
    usage = zone.memory_usage()
    return UsageBreakdown(
        label=label,
        capacity=zone.capacity,
        items=usage["items"],
        metadata=usage["metadata"],
        other=usage["other"],
        uncompressed_items=uncompressed_items,
        item_count=zone.item_count,
    )


def breakdown_zzone(zone: ZZone) -> UsageBreakdown:
    """Break a Z-zone-only cache down, charging malloc chunk overhead.

    Block containers are malloc'd, so each block pays the allocator's
    header + alignment waste — reported under ``other`` to mirror
    Figure 7's "others" slice.
    """
    usage = zone.memory_usage()
    malloc_overhead = sum(
        malloc.overhead(leaf.stored_bytes) for leaf in zone._trie.leaves()
    )
    return UsageBreakdown(
        label="zExpander (Z-zone only)",
        capacity=zone.capacity,
        items=usage["compressed_items"],
        metadata=usage["block_metadata"] + usage["trie_index"],
        other=malloc_overhead + max(0, zone.capacity - zone.used_bytes - malloc_overhead),
        uncompressed_items=usage["uncompressed_items"],
        item_count=zone.item_count,
    )
