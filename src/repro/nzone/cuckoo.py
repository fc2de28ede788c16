"""4-way optimistic cuckoo hash table (MemC3-style, used by H-Cache).

MemC3 [22] replaces memcached's chained hash table with a set-associative
cuckoo table: every key has two candidate buckets of four slots each, and
inserts displace victims along a random walk.  The paper's H-Cache adopts
this design; we implement the table for real — displacement walk, partial
key tags, grow-and-rehash on failure — because its occupancy and probe
behaviour feed the performance model.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.common.hashing import fnv1a_64, hash_key
from repro.common.rng import make_rng

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
