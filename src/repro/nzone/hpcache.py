"""H-Cache: the high-performance N-zone (cuckoo hashing + CLOCK, §4.1).

The paper's second prototype removes networking and manages its N-zone
with MemC3's design: an optimistic cuckoo hash table for the index and
CLOCK replacement instead of LRU (one reference bit per item, no list
pointers to maintain).  This zone is the "H-Cache" baseline of Figures
10–16 when run standalone, and H-zExpander's N-zone when paired with a
Z-zone.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.hashing import hash_key
from repro.nzone.base import EvictedItem, NZone
from repro.nzone.cuckoo import CuckooTable

#: Modelled per-item bookkeeping outside the hash table: length fields,
#: flags, the CLOCK reference bit, allocation header.
ITEM_OVERHEAD_BYTES = 24

# Ring-entry field indices.
_KEY, _VALUE, _REFBIT, _ALIVE = range(4)


class HPCacheZone(NZone):
    """Byte-bounded CLOCK cache indexed by a real cuckoo table."""

    def __init__(self, capacity: int, seed: int = 0) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        # Size the table for the capacity (MemC3 provisions its table for
        # the expected item count): ~256 bytes of cache per bucket keeps
        # the slot array at a few percent of the budget.
        buckets = 4
        while buckets * 256 < capacity and buckets < (1 << 24):
            buckets *= 2
        self._table = CuckooTable(initial_buckets=buckets, seed=seed)
        #: CLOCK ring: entries are mutable lists; dead entries linger until
        #: compaction so the hand's position stays meaningful.
        self._ring: List[list] = []
        self._hand = 0
        self._dead = 0
        self._payload_bytes = 0
        self._count = 0

    # -- internals -----------------------------------------------------------

    def _item_bytes(self, key: bytes, value: bytes) -> int:
        return len(key) + len(value) + ITEM_OVERHEAD_BYTES

    @property
    def _items_used(self) -> int:
        return self._payload_bytes + self._count * ITEM_OVERHEAD_BYTES

    def _compact_ring(self) -> None:
        if self._dead * 2 <= len(self._ring):
            return
        hand_entry = None
        if self._ring and self._hand < len(self._ring):
            hand_entry = self._ring[self._hand]
        self._ring = [entry for entry in self._ring if entry[_ALIVE]]
        self._dead = 0
        self._hand = 0
        if hand_entry is not None and hand_entry[_ALIVE]:
            try:
                self._hand = self._ring.index(hand_entry)
            except ValueError:  # pragma: no cover - defensive
                self._hand = 0

    def _evict_one(self) -> Optional[EvictedItem]:
        """Advance the CLOCK hand to a victim and evict it."""
        if self._count == 0:
            return None
        while True:
            if self._hand >= len(self._ring):
                self._hand = 0
            entry = self._ring[self._hand]
            if not entry[_ALIVE]:
                self._hand += 1
                continue
            if entry[_REFBIT]:
                entry[_REFBIT] = False
                self._hand += 1
                continue
            entry[_ALIVE] = False
            self._dead += 1
            self._hand += 1
            # One hash serves the index delete here and the victim's
            # Z-zone put.
            key = entry[_KEY]
            hashed = hash_key(key)
            self._table.delete(key, hashed)
            self._payload_bytes -= len(key) + len(entry[_VALUE])
            self._count -= 1
            victim = EvictedItem(key=key, value=entry[_VALUE], hashed=hashed)
            self._compact_ring()
            return victim

    def _evict_to_fit(self) -> List[EvictedItem]:
        evicted: List[EvictedItem] = []
        while self.used_bytes > self._capacity:
            victim = self._evict_one()
            if victim is None:
                break
            evicted.append(victim)
        return evicted

    # -- NZone interface ---------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def used_bytes(self) -> int:
        return self._items_used + self._table.memory_bytes

    @property
    def item_count(self) -> int:
        return self._count

    def get(self, key: bytes, hashed: Optional[int] = None) -> Optional[bytes]:
        entry = self._table.get(key, hashed)
        if entry is None or not entry[_ALIVE]:
            return None
        entry[_REFBIT] = True
        return entry[_VALUE]

    def set(self, key: bytes, value: bytes) -> List[EvictedItem]:
        if self._item_bytes(key, value) > self._capacity:
            return [EvictedItem(key=key, value=value)]
        hashed = hash_key(key)
        entry = self._table.get(key, hashed)
        if entry is not None and entry[_ALIVE]:
            self._payload_bytes += len(value) - len(entry[_VALUE])
            entry[_VALUE] = value
            entry[_REFBIT] = True
            return self._evict_to_fit()
        new_entry = [key, value, False, True]
        self._ring.append(new_entry)
        self._table.insert(key, new_entry, hashed)
        self._payload_bytes += len(key) + len(value)
        self._count += 1
        return self._evict_to_fit()

    def delete(self, key: bytes, hashed: Optional[int] = None) -> bool:
        if hashed is None:
            hashed = hash_key(key)
        entry = self._table.get(key, hashed)
        if entry is None or not entry[_ALIVE]:
            return False
        entry[_ALIVE] = False
        self._dead += 1
        self._table.delete(key, hashed)
        self._payload_bytes -= len(key) + len(entry[_VALUE])
        self._count -= 1
        self._compact_ring()
        return True

    def __contains__(self, key: bytes) -> bool:
        entry = self._table.get(key)
        return entry is not None and entry[_ALIVE]

    def resize(self, capacity: int) -> List[EvictedItem]:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        return self._evict_to_fit()

    def memory_usage(self) -> Dict[str, int]:
        return {
            "items": self._payload_bytes,
            "metadata": self._count * ITEM_OVERHEAD_BYTES + self._table.memory_bytes,
            "other": 0,
        }

    def items(self):
        for entry in list(self._ring):
            if entry[_ALIVE]:
                yield entry[_KEY], entry[_VALUE]

    def check_invariants(self) -> None:
        alive = [entry for entry in self._ring if entry[_ALIVE]]
        if len(alive) != self._count:
            raise AssertionError(f"count {self._count} != alive {len(alive)}")
        if len(self._table) != self._count:
            raise AssertionError("cuckoo table and ring disagree")
        payload = sum(len(e[_KEY]) + len(e[_VALUE]) for e in alive)
        if payload != self._payload_bytes:
            raise AssertionError("payload bytes out of sync")
        for key, entry in self._table.items():
            if not entry[_ALIVE] or entry[_KEY] != key:
                raise AssertionError("table points at dead or wrong entry")
