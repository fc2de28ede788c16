"""H-Cache: the high-performance N-zone (cuckoo hashing + CLOCK, §4.1).

The paper's second prototype removes networking and manages its N-zone
with MemC3's design: an optimistic cuckoo hash table for the index and
CLOCK replacement instead of LRU (one reference bit per item, no list
pointers to maintain).  This zone is the "H-Cache" baseline of Figures
10–16 when run standalone, and H-zExpander's N-zone when paired with a
Z-zone.

Item layout: the CLOCK ring is three parallel arrays indexed by a ring
slot — ``_keys`` (a dead slot holds None), ``_values`` and the reference
bits, one byte each in a ``bytearray``.  The cuckoo table maps a key to
its ring slot (:mod:`repro.nzone.cuckoo`) and compares keys through
``_keys``, so an item costs the host its key and value objects, two list
pointers, a byte, and its table slot.  A new item appends a slot; a
removed one leaves a dead slot behind until more than half the ring is
dead, when the ring is compacted in order and the table's slot numbers
and the hand are remapped to match.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.hashing import hash_key
from repro.nzone.base import EvictedItem, NZone
from repro.nzone.cuckoo import CuckooTable

#: Modelled per-item bookkeeping outside the hash table: length fields,
#: flags, the CLOCK reference bit, allocation header.
ITEM_OVERHEAD_BYTES = 24


class HPCacheZone(NZone):
    """Byte-bounded CLOCK cache indexed by a real cuckoo table."""

    def __init__(self, capacity: int, seed: int = 0) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        #: The CLOCK ring, one entry per slot; dead slots linger until
        #: compaction so the hand's position stays meaningful.  The table
        #: reads ``_keys`` in place, so compaction rewrites it in place.
        self._keys: List[Optional[bytes]] = []
        self._values: List[Optional[bytes]] = []
        self._refbits = bytearray()
        # Size the table for the capacity (MemC3 provisions its table for
        # the expected item count): ~256 bytes of cache per bucket keeps
        # the slot array at a few percent of the budget.
        buckets = 4
        while buckets * 256 < capacity and buckets < (1 << 24):
            buckets *= 2
        self._table = CuckooTable(self._keys, initial_buckets=buckets, seed=seed)
        self._hand = 0
        self._dead = 0
        self._payload_bytes = 0
        self._count = 0

    # -- internals -----------------------------------------------------------

    def _kill(self, slot: int, key: bytes) -> None:
        """Retire a live ring slot whose key the table no longer holds."""
        self._keys[slot] = None
        self._payload_bytes -= len(key) + len(self._values[slot])
        self._values[slot] = None
        self._dead += 1
        self._count -= 1

    def _compact_ring(self) -> None:
        keys = self._keys
        if self._dead * 2 <= len(keys):
            return
        live = [slot for slot, key in enumerate(keys) if key is not None]
        positions = [0] * len(keys)
        for new, old in enumerate(live):
            positions[old] = new
        hand = self._hand
        self._hand = (
            positions[hand] if hand < len(keys) and keys[hand] is not None else 0
        )
        keys[:] = [keys[slot] for slot in live]
        values = self._values
        self._values = [values[slot] for slot in live]
        refbits = self._refbits
        self._refbits = bytearray([refbits[slot] for slot in live])
        self._dead = 0
        self._table.remap(positions)

    def _evict_one(self) -> Optional[EvictedItem]:
        """Advance the CLOCK hand to a victim and evict it."""
        if self._count == 0:
            return None
        keys = self._keys
        refbits = self._refbits
        hand = self._hand
        while True:
            if hand >= len(keys):
                hand = 0
            key = keys[hand]
            if key is None:
                hand += 1
                continue
            if refbits[hand]:
                refbits[hand] = 0
                hand += 1
                continue
            self._hand = hand + 1
            # One hash serves the index delete here and the victim's
            # Z-zone put.
            hashed = hash_key(key)
            self._table.pop(key, hashed)
            victim = EvictedItem(key=key, value=self._values[hand], hashed=hashed)
            self._kill(hand, key)
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
        return (
            self._payload_bytes
            + self._count * ITEM_OVERHEAD_BYTES
            + self._table.memory_bytes
        )

    @property
    def item_count(self) -> int:
        return self._count

    def get(self, key: bytes, hashed: Optional[int] = None) -> Optional[bytes]:
        slot = self._table.get(key, hashed)
        if slot is None:
            return None
        self._refbits[slot] = 1
        return self._values[slot]

    def set(self, key: bytes, value: bytes) -> List[EvictedItem]:
        if len(key) + len(value) + ITEM_OVERHEAD_BYTES > self._capacity:
            self.delete(key)  # the older version must not outlive the write
            return [EvictedItem(key=key, value=value)]
        hashed = hash_key(key)
        slot = self._table.get(key, hashed)
        if slot is not None:
            self._payload_bytes += len(value) - len(self._values[slot])
            self._values[slot] = value
            self._refbits[slot] = 1
            return self._evict_to_fit()
        self._keys.append(key)
        self._values.append(value)
        self._refbits.append(0)
        self._table.insert(key, len(self._keys) - 1, hashed)
        self._payload_bytes += len(key) + len(value)
        self._count += 1
        return self._evict_to_fit()

    def delete(self, key: bytes, hashed: Optional[int] = None) -> bool:
        slot = self._table.pop(key, hashed)
        if slot is None:
            return False
        self._kill(slot, key)
        self._compact_ring()
        return True

    def __contains__(self, key: bytes) -> bool:
        return self._table.get(key) is not None

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
        """Live items in ring order, as the ring stood when iteration began."""
        for key, value in zip(list(self._keys), list(self._values)):
            if key is not None:
                yield key, value

    def check_invariants(self) -> None:
        keys = self._keys
        if not len(keys) == len(self._values) == len(self._refbits):
            raise AssertionError("ring arrays differ in length")
        alive = [slot for slot, key in enumerate(keys) if key is not None]
        if len(alive) != self._count:
            raise AssertionError(f"count {self._count} != alive {len(alive)}")
        if len(keys) - len(alive) != self._dead:
            raise AssertionError("dead-slot count out of sync")
        if len(self._table) != self._count:
            raise AssertionError("cuckoo table and ring disagree")
        payload = sum(len(keys[slot]) + len(self._values[slot]) for slot in alive)
        if payload != self._payload_bytes:
            raise AssertionError("payload bytes out of sync")
        for key, slot in self._table.items():
            if key is None or self._table.get(key) != slot:
                raise AssertionError("table points at dead or wrong slot")
