"""The list-based N-zone as it stood before the slot-array layout: the
test oracle for :mod:`repro.nzone.hpcache` and :mod:`repro.nzone.cuckoo`.

Kept verbatim apart from this docstring, the imports and one line both
layouts lacked (an oversized SET drops the key's older version): one
4-element list per ring item, one ``(key, tag, payload)`` tuple per
table slot and one list per bucket.  ``tests/nzone/test_slot_layout.py`` drives this copy
and the shipped one with the same operations and requires every answer,
eviction, count and slot position to agree.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.common.hashing import fnv1a_64, hash_key
from repro.common.rng import make_rng
from repro.nzone.base import EvictedItem, NZone

SLOTS_PER_BUCKET = 4
#: Modelled bytes per slot: a 1-byte tag plus a pointer, padded.
SLOT_BYTES = 8

#: The alternate-bucket step depends only on the 1-byte tag, so all 256
#: FNV values are precomputed instead of hashing on every lookup.
_TAG_STEP = tuple(fnv1a_64(bytes([tag])) for tag in range(256))

# Entry layout inside a slot: (key, tag, payload).
_Slot = Tuple[bytes, int, Any]


class CuckooTable:
    """Byte-modelled, behaviourally real cuckoo hash table."""

    def __init__(
        self,
        initial_buckets: int = 1024,
        max_kicks: int = 500,
        seed: int = 0,
    ) -> None:
        if initial_buckets < 2 or initial_buckets & (initial_buckets - 1):
            raise ValueError("initial_buckets must be a power of two >= 2")
        self._buckets: List[List[_Slot]] = [[] for _ in range(initial_buckets)]
        self._mask = initial_buckets - 1
        self._max_kicks = max_kicks
        self._rng = make_rng(seed, "cuckoo")
        self._count = 0
        #: Telemetry: total displacement steps across all inserts.
        self.total_kicks = 0
        self.rehashes = 0

    # -- hashing ---------------------------------------------------------------

    @staticmethod
    def _tag(hashed: int) -> int:
        tag = (hashed >> 56) & 0xFF
        return tag or 1  # tag 0 is reserved, as in cuckoo-filter practice

    def _alt_bucket(self, bucket: int, tag: int) -> int:
        # Partial-key cuckoo hashing: the alternate is computable from the
        # bucket and the tag alone, in either direction.
        return (bucket ^ (_TAG_STEP[tag] & self._mask)) & self._mask

    def _candidates(self, key: bytes, hashed: Optional[int]) -> Tuple[int, int, int]:
        if hashed is None:
            hashed = hash_key(key)
        tag = (hashed >> 56) & 0xFF or 1
        mask = self._mask
        b1 = hashed & mask
        return b1, (b1 ^ (_TAG_STEP[tag] & mask)) & mask, tag

    # -- operations ---------------------------------------------------------------

    def get(self, key: bytes, hashed: Optional[int] = None) -> Optional[Any]:
        """``key``'s payload or None; ``hashed`` is its
        :func:`~repro.common.hashing.hash_key`, computed here if omitted."""
        b1, b2, tag = self._candidates(key, hashed)
        for bucket_index in (b1, b2):
            for slot_key, slot_tag, payload in self._buckets[bucket_index]:
                if slot_tag == tag and slot_key == key:
                    return payload
        return None

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return self._count

    def insert(self, key: bytes, payload: Any, hashed: Optional[int] = None) -> None:
        """Insert or replace; grows the table if the walk fails."""
        b1, b2, tag = self._candidates(key, hashed)
        for bucket_index in (b1, b2):
            bucket = self._buckets[bucket_index]
            for position, (slot_key, slot_tag, _payload) in enumerate(bucket):
                if slot_tag == tag and slot_key == key:
                    bucket[position] = (key, tag, payload)
                    return
        if self._try_place(key, tag, payload, b1, b2):
            self._count += 1
            return
        # Displacement walk failed: grow and retry (rehash doubles space).
        self._grow()
        self.insert(key, payload, hashed)

    def _try_place(
        self, key: bytes, tag: int, payload: Any, b1: int, b2: int
    ) -> bool:
        for bucket_index in (b1, b2):
            bucket = self._buckets[bucket_index]
            if len(bucket) < SLOTS_PER_BUCKET:
                bucket.append((key, tag, payload))
                return True
        # Random-walk displacement.
        current = (key, tag, payload)
        bucket_index = self._rng.choice((b1, b2))
        for _ in range(self._max_kicks):
            bucket = self._buckets[bucket_index]
            victim_position = self._rng.randrange(SLOTS_PER_BUCKET)
            victim = bucket[victim_position]
            bucket[victim_position] = current
            self.total_kicks += 1
            current = victim
            bucket_index = self._alt_bucket(bucket_index, current[1])
            bucket = self._buckets[bucket_index]
            if len(bucket) < SLOTS_PER_BUCKET:
                bucket.append(current)
                return True
        # Undo is unnecessary: the displaced chain is still fully stored;
        # only ``current`` is homeless, so re-insert it after growing.
        self._homeless = current
        return False

    def _grow(self) -> None:
        old_entries: List[_Slot] = [
            slot for bucket in self._buckets for slot in bucket
        ]
        homeless = getattr(self, "_homeless", None)
        if homeless is not None:
            old_entries.append(homeless)
            self._homeless = None
        new_size = (self._mask + 1) * 2
        self._buckets = [[] for _ in range(new_size)]
        self._mask = new_size - 1
        self._count = 0
        self.rehashes += 1
        # Slots keep no hash: growth (rare) re-hashes every key.
        for key, _tag, payload in old_entries:
            self.insert(key, payload)

    def delete(self, key: bytes, hashed: Optional[int] = None) -> bool:
        b1, b2, tag = self._candidates(key, hashed)
        for bucket_index in (b1, b2):
            bucket = self._buckets[bucket_index]
            for position, (slot_key, slot_tag, _payload) in enumerate(bucket):
                if slot_tag == tag and slot_key == key:
                    bucket.pop(position)
                    self._count -= 1
                    return True
        return False

    def items(self) -> Iterator[Tuple[bytes, Any]]:
        for bucket in self._buckets:
            for slot_key, _tag, payload in bucket:
                yield slot_key, payload

    # -- accounting ------------------------------------------------------------------

    @property
    def bucket_count(self) -> int:
        return self._mask + 1

    @property
    def memory_bytes(self) -> int:
        """Modelled footprint: the full slot array, occupied or not."""
        return self.bucket_count * SLOTS_PER_BUCKET * SLOT_BYTES


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
            self.delete(key)
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
