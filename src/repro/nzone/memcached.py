"""A behavioural model of memcached 1.4.24 (the paper's M-zExpander N-zone).

What Figures 5–9 need from memcached is (a) its LRU behaviour *per slab
class* and (b) its memory layout — where the bytes of a 60 GB cache
actually go (Figure 7: only ~56 % holds KV payload, ~32 % is per-item
metadata, the rest is slab fragmentation).  This model reproduces both:

* **Slab allocation** — memory is carved into pages (1 MB, memcached's
  default) assigned on demand to *slab classes* of geometrically growing
  chunk sizes (factor 1.25 from a 96 B minimum).  An item occupies one
  chunk of the smallest class that fits; the rounding gap is internal
  fragmentation.  Pages are never reassigned between classes (1.4.x
  default), which is exactly the calcification effect LAMA [24] studies.
* **Per-item metadata** — a 48-byte item header (the three pointers the
  paper counts: hash-chain next, LRU prev/next — plus refcount, flags,
  CAS) and an 8-byte suffix, plus the hash-table bucket array (grown at
  1.5× load like memcached's).
* **Per-class LRU queues** — eviction takes the LRU item *of the class
  the incoming item needs*, memcached's actual policy.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from repro.common.units import MB
from repro.nzone.base import EvictedItem, NZone

ITEM_HEADER_BYTES = 48
ITEM_SUFFIX_BYTES = 8
HASH_BUCKET_BYTES = 8
DEFAULT_PAGE_BYTES = 1 * MB
DEFAULT_MIN_CHUNK = 96
DEFAULT_GROWTH_FACTOR = 1.25


def build_chunk_sizes(
    min_chunk: int = DEFAULT_MIN_CHUNK,
    growth_factor: float = DEFAULT_GROWTH_FACTOR,
    max_chunk: int = DEFAULT_PAGE_BYTES,
) -> List[int]:
    """The geometric chunk-size ladder of memcached's slab classes."""
    if min_chunk < 48:
        raise ValueError(f"min_chunk must be >= 48, got {min_chunk}")
    if growth_factor <= 1.0:
        raise ValueError(f"growth_factor must exceed 1, got {growth_factor}")
    sizes: List[int] = []
    size = min_chunk
    while size < max_chunk:
        # memcached aligns chunks to 8 bytes.
        aligned = (size + 7) & ~7
        if not sizes or aligned > sizes[-1]:
            sizes.append(aligned)
        size = int(size * growth_factor)
    sizes.append(max_chunk)
    return sizes


class SlabAllocator:
    """Page/chunk bookkeeping for one cache instance.

    Pages are assigned to classes on demand and never returned (matching
    1.4.x without slab reassignment); a page yields
    ``page_bytes // chunk_size`` chunks, the remainder being page-tail
    waste.
    """

    def __init__(
        self,
        memory_limit: int,
        page_bytes: int = DEFAULT_PAGE_BYTES,
        chunk_sizes: Optional[List[int]] = None,
    ) -> None:
        if memory_limit < page_bytes:
            raise ValueError(
                f"memory limit {memory_limit} below one page ({page_bytes})"
            )
        self.memory_limit = memory_limit
        self.page_bytes = page_bytes
        self.chunk_sizes = chunk_sizes or build_chunk_sizes(max_chunk=page_bytes)
        self._pages_per_class = [0] * len(self.chunk_sizes)
        self._free_chunks = [0] * len(self.chunk_sizes)
        self._used_chunks = [0] * len(self.chunk_sizes)
        self._total_pages = 0

    def class_for(self, needed: int) -> Optional[int]:
        """Smallest class whose chunk fits ``needed`` bytes, or None."""
        for class_id, chunk in enumerate(self.chunk_sizes):
            if chunk >= needed:
                return class_id
        return None

    def allocate(self, class_id: int) -> bool:
        """Take one chunk of ``class_id``; may assign a fresh page.

        Returns False when no chunk is free and the memory limit blocks a
        new page — the caller must evict from this class's LRU.
        """
        if self._free_chunks[class_id] == 0:
            next_total = (self._total_pages + 1) * self.page_bytes
            if next_total > self.memory_limit:
                return False
            self._pages_per_class[class_id] += 1
            self._total_pages += 1
            self._free_chunks[class_id] += (
                self.page_bytes // self.chunk_sizes[class_id]
            )
        self._free_chunks[class_id] -= 1
        self._used_chunks[class_id] += 1
        return True

    def free(self, class_id: int) -> None:
        """Return one chunk of ``class_id`` to its free list."""
        if self._used_chunks[class_id] == 0:
            raise ValueError(f"class {class_id} has no used chunks")
        self._used_chunks[class_id] -= 1
        self._free_chunks[class_id] += 1

    def release_empty_pages(self, class_id: int) -> int:
        """Give back fully-free pages (used only by resize, an extension:
        stock memcached cannot shrink).  Assumes free chunks can be
        compacted into whole pages — optimistic, documented in
        :meth:`MemcachedZone.resize`."""
        chunks_per_page = self.page_bytes // self.chunk_sizes[class_id]
        released = 0
        while (
            self._free_chunks[class_id] >= chunks_per_page
            and self._pages_per_class[class_id] > 0
        ):
            self._free_chunks[class_id] -= chunks_per_page
            self._pages_per_class[class_id] -= 1
            self._total_pages -= 1
            released += 1
        return released

    # -- accounting -----------------------------------------------------------

    @property
    def allocated_bytes(self) -> int:
        return self._total_pages * self.page_bytes


class MemcachedZone(NZone):
    """memcached-1.4.24-like N-zone."""

    def __init__(
        self,
        capacity: int,
        page_bytes: int = DEFAULT_PAGE_BYTES,
        min_chunk: int = DEFAULT_MIN_CHUNK,
        growth_factor: float = DEFAULT_GROWTH_FACTOR,
    ) -> None:
        self._slabs = SlabAllocator(
            capacity,
            page_bytes=page_bytes,
            chunk_sizes=build_chunk_sizes(min_chunk, growth_factor, page_bytes),
        )
        self._capacity = capacity
        # Per-class LRU queues: class_id -> OrderedDict[key, value].
        self._lru: Dict[int, "OrderedDict[bytes, bytes]"] = {}
        # Global index: key -> (class_id, class queue).  Caching the queue
        # reference alongside the class id saves the second hash lookup
        # (index -> class -> queue) on every GET, the dominant operation.
        self._index: Dict[bytes, tuple] = {}
        self._payload_bytes = 0
        self._hash_buckets = 1024
        self._grow_at = self._hash_buckets * 3 // 2

    # -- helpers ----------------------------------------------------------------

    @staticmethod
    def item_footprint(key: bytes, value: bytes) -> int:
        """Bytes an item needs inside its chunk (header + suffix + data)."""
        return ITEM_HEADER_BYTES + ITEM_SUFFIX_BYTES + len(key) + 1 + len(value)

    def _maybe_grow_hashtable(self) -> None:
        while len(self._index) > self._grow_at:
            self._hash_buckets *= 2
            self._grow_at = self._hash_buckets * 3 // 2

    def _class_queue(self, class_id: int) -> "OrderedDict[bytes, bytes]":
        queue = self._lru.get(class_id)
        if queue is None:
            queue = OrderedDict()
            self._lru[class_id] = queue
        return queue

    # -- NZone interface -----------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def used_bytes(self) -> int:
        """Bytes unavailable for new data: all assigned pages + hash table."""
        return self._slabs.allocated_bytes + self._hash_buckets * HASH_BUCKET_BYTES

    @property
    def item_count(self) -> int:
        return len(self._index)

    def get(self, key: bytes, hashed: Optional[int] = None) -> Optional[bytes]:
        entry = self._index.get(key)
        if entry is None:
            return None
        queue = entry[1]
        queue.move_to_end(key)
        return queue[key]

    def set(self, key: bytes, value: bytes) -> List[EvictedItem]:
        footprint = self.item_footprint(key, value)
        class_id = self._slabs.class_for(footprint)
        if class_id is None:
            # Larger than the biggest chunk: memcached refuses the store.
            return [EvictedItem(key=key, value=value)]
        evicted: List[EvictedItem] = []
        old_entry = self._index.get(key)
        if old_entry is not None:
            self._remove(key, old_entry)
        while not self._slabs.allocate(class_id):
            victim = self._evict_one(class_id)
            if victim is None:
                # No page available and nothing to evict in this class.
                return evicted + [EvictedItem(key=key, value=value)]
            evicted.append(victim)
        queue = self._class_queue(class_id)
        queue[key] = value
        self._index[key] = (class_id, queue)
        self._payload_bytes += len(key) + len(value)
        if len(self._index) > self._grow_at:
            self._maybe_grow_hashtable()
        return evicted

    def _evict_one(self, class_id: int) -> Optional[EvictedItem]:
        queue = self._lru.get(class_id)
        if not queue:
            return None
        victim_key, victim_value = queue.popitem(last=False)
        del self._index[victim_key]
        self._payload_bytes -= len(victim_key) + len(victim_value)
        self._slabs.free(class_id)
        return EvictedItem(key=victim_key, value=victim_value)

    def _remove(self, key: bytes, entry: tuple) -> bytes:
        class_id, queue = entry
        value = queue.pop(key)
        del self._index[key]
        self._payload_bytes -= len(key) + len(value)
        self._slabs.free(class_id)
        return value

    def delete(self, key: bytes, hashed: Optional[int] = None) -> bool:
        entry = self._index.get(key)
        if entry is None:
            return False
        self._remove(key, entry)
        return True

    def __contains__(self, key: bytes) -> bool:
        return key in self._index

    def resize(self, capacity: int) -> List[EvictedItem]:
        """Shrink/grow the memory limit (an extension; see module docs).

        Stock memcached cannot resize online — the paper's M-zExpander
        prototype therefore uses *static* zone sizes, and so do the
        M-zExpander benches.  This method exists for the H-zExpander-style
        adaptive experiments when they run against the memcached model: it
        evicts LRU items class-by-class and optimistically releases pages.
        """
        if capacity < self._slabs.page_bytes:
            raise ValueError("capacity below one slab page")
        self._capacity = capacity
        self._slabs.memory_limit = capacity
        evicted: List[EvictedItem] = []
        while self._slabs.allocated_bytes > capacity:
            class_id = self._largest_class()
            if class_id is None:
                break
            victim = self._evict_one(class_id)
            if victim is not None:
                evicted.append(victim)
            released = self._slabs.release_empty_pages(class_id)
            if victim is None and released == 0:
                break
        return evicted

    def _largest_class(self) -> Optional[int]:
        best = None
        best_pages = 0
        for class_id, pages in enumerate(self._slabs._pages_per_class):
            if pages > best_pages:
                best, best_pages = class_id, pages
        return best

    def memory_usage(self) -> Dict[str, int]:
        """Figure 7's breakdown.

        ``items`` is raw KV payload; ``metadata`` is item headers +
        suffixes + the hash-table array; ``other`` is slab fragmentation
        (chunk rounding, free chunks, page tails).
        """
        metadata = (
            len(self._index) * (ITEM_HEADER_BYTES + ITEM_SUFFIX_BYTES + 1)
            + self._hash_buckets * HASH_BUCKET_BYTES
        )
        items = self._payload_bytes
        other = self.used_bytes - items - metadata
        return {"items": items, "metadata": metadata, "other": other}

    def items(self):
        for queue in self._lru.values():
            yield from list(queue.items())

    def check_invariants(self) -> None:
        total_items = sum(len(queue) for queue in self._lru.values())
        if total_items != len(self._index):
            raise AssertionError("LRU queues and index disagree")
        payload = sum(
            len(k) + len(v) for queue in self._lru.values() for k, v in queue.items()
        )
        if payload != self._payload_bytes:
            raise AssertionError(
                f"payload accounting off: {payload} != {self._payload_bytes}"
            )
        if self._slabs.allocated_bytes > self._capacity:
            raise AssertionError("slab pages exceed the memory limit")
