"""4-way optimistic cuckoo hash table (MemC3-style, used by H-Cache).

MemC3 [22] replaces memcached's chained hash table with a set-associative
cuckoo table: every key has two candidate buckets of four slots each, and
inserts displace victims along a random walk.  The paper's H-Cache adopts
this design; we implement the table for real — displacement walk, partial
key tags, grow-and-rehash on failure — because its occupancy and probe
behaviour feed the performance model.

Slot layout, as MemC3 lays it out: a slot is a 1-byte tag and a pointer
to the item, nothing else.  Slot ``i`` of bucket ``b`` is index
``4 * b + i`` of two flat arrays, ``_tags`` (a ``bytearray``; tag 0 marks
an empty slot) and ``_slots`` (an ``array('I')``).  The "pointer" is a
position in ``keys``, the array its owner keeps its keys in (the H-Cache
ring), so the table holds no key of its own: a probe finds tag matches
with ``bytearray.find`` and compares ``keys[position]`` only for those.
A bucket's occupied slots are a prefix of it: an insert takes the first
empty slot, a delete shifts the slots after it down by one.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.common.hashing import fnv1a_64, hash_key
from repro.common.rng import make_rng

SLOTS_PER_BUCKET = 4
#: Displacement steps an insert tries before the table grows.
MAX_KICKS = 500
#: Modelled bytes per slot: a 1-byte tag plus a pointer, padded.
SLOT_BYTES = 8

#: The alternate-bucket step depends only on the 1-byte tag, so all 256
#: FNV values are precomputed instead of hashing on every lookup.
_TAG_STEP = tuple(fnv1a_64(bytes([tag])) for tag in range(256))


class CuckooTable:
    """Byte-modelled, behaviourally real cuckoo hash table over ``keys``.

    ``insert(key, position)`` records that ``keys[position] == key``;
    ``get(key)`` answers that position.  The owner keeps ``keys`` and may
    move its entries, telling the table with :meth:`remap`.
    """

    def __init__(
        self,
        keys: Sequence[Optional[bytes]],
        initial_buckets: int = 1024,
        seed: int = 0,
    ) -> None:
        if initial_buckets < 2 or initial_buckets & (initial_buckets - 1):
            raise ValueError("initial_buckets must be a power of two >= 2")
        self._keys = keys
        self._tags = bytearray(initial_buckets * SLOTS_PER_BUCKET)
        self._slots = array("I", bytes(4 * initial_buckets * SLOTS_PER_BUCKET))
        self._mask = initial_buckets - 1
        #: Modelled footprint: the full slot array, occupied or not.
        self.memory_bytes = initial_buckets * SLOTS_PER_BUCKET * SLOT_BYTES
        self._rng = make_rng(seed, "cuckoo")
        self._count = 0
        #: The position a failed displacement walk left without a slot;
        #: :meth:`_grow` re-inserts it.
        self._homeless: Optional[int] = None
        #: Telemetry: total displacement steps across all inserts.
        self.total_kicks = 0
        self.rehashes = 0

    # -- probing ---------------------------------------------------------------

    def _locate(self, key: bytes, hashed: Optional[int]) -> Tuple[int, int, int, int]:
        """``(slot, b1, b2, tag)``: the slot holding ``key`` (-1 if none),
        its two candidate buckets and its tag."""
        if hashed is None:
            hashed = hash_key(key)
        # Tag 0 is reserved for an empty slot, as in cuckoo-filter practice.
        tag = (hashed >> 56) & 0xFF or 1
        mask = self._mask
        b1 = hashed & mask
        # Partial-key cuckoo hashing: the alternate is computable from the
        # bucket and the tag alone, in either direction.
        b2 = b1 ^ (_TAG_STEP[tag] & mask)
        tags = self._tags
        keys = self._keys
        slots = self._slots
        for bucket in (b1, b2):
            start = bucket << 2
            end = start + SLOTS_PER_BUCKET
            if tag not in tags[start:end]:
                continue
            slot = tags.find(tag, start, end)
            while slot >= 0:
                if keys[slots[slot]] == key:
                    return slot, b1, b2, tag
                slot = tags.find(tag, slot + 1, end)
        return -1, b1, b2, tag

    # -- operations ---------------------------------------------------------------

    def get(self, key: bytes, hashed: Optional[int] = None) -> Optional[int]:
        """``key``'s position in ``keys``, or None; ``hashed`` is its
        :func:`~repro.common.hashing.hash_key`, computed here if omitted.

        The hot probe (every GET, hit or miss), so it is :meth:`_locate`
        written out.  A three-argument ``find`` costs about twice a
        membership test on a 4-byte slice, so the alternate bucket, where
        few hits land, is tested for the tag before it is searched.
        """
        if hashed is None:
            hashed = hash_key(key)
        tag = (hashed >> 56) & 0xFF or 1
        mask = self._mask
        tags = self._tags
        b1 = hashed & mask
        start = b1 << 2
        slot = tags.find(tag, start, start + 4)
        while slot >= 0:
            position = self._slots[slot]
            if self._keys[position] == key:
                return position
            slot = tags.find(tag, slot + 1, start + 4)
        start = (b1 ^ (_TAG_STEP[tag] & mask)) << 2
        if tag in tags[start : start + 4]:
            slot = tags.find(tag, start, start + 4)
            while slot >= 0:
                position = self._slots[slot]
                if self._keys[position] == key:
                    return position
                slot = tags.find(tag, slot + 1, start + 4)
        return None

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return self._count

    def insert(self, key: bytes, position: int, hashed: Optional[int] = None) -> None:
        """Insert or replace; grows the table if the walk fails."""
        slot, b1, b2, tag = self._locate(key, hashed)
        if slot >= 0:
            self._slots[slot] = position
            return
        if self._try_place(tag, position, b1, b2):
            self._count += 1
            return
        # Displacement walk failed: grow and retry (rehash doubles space).
        self._grow()
        self.insert(key, position, hashed)

    def _try_place(self, tag: int, position: int, b1: int, b2: int) -> bool:
        tags = self._tags
        slots = self._slots
        for bucket in (b1, b2):
            free = tags.find(0, bucket << 2, (bucket << 2) + SLOTS_PER_BUCKET)
            if free >= 0:
                tags[free] = tag
                slots[free] = position
                return True
        # Random-walk displacement.
        mask = self._mask
        bucket = self._rng.choice((b1, b2))
        for _ in range(MAX_KICKS):
            victim = (bucket << 2) + self._rng.randrange(SLOTS_PER_BUCKET)
            tag, tags[victim] = tags[victim], tag
            position, slots[victim] = slots[victim], position
            self.total_kicks += 1
            bucket = (bucket ^ (_TAG_STEP[tag] & mask)) & mask
            free = tags.find(0, bucket << 2, (bucket << 2) + SLOTS_PER_BUCKET)
            if free >= 0:
                tags[free] = tag
                slots[free] = position
                return True
        # Undo is unnecessary: the displaced chain is still fully stored;
        # only ``position`` is homeless, so re-insert it after growing.
        self._homeless = position
        return False

    def _grow(self) -> None:
        old_positions: List[int] = [
            position for tag, position in zip(self._tags, self._slots) if tag
        ]
        if self._homeless is not None:
            old_positions.append(self._homeless)
            self._homeless = None
        new_size = (self._mask + 1) * 2
        self._tags = bytearray(new_size * SLOTS_PER_BUCKET)
        self._slots = array("I", bytes(4 * new_size * SLOTS_PER_BUCKET))
        self._mask = new_size - 1
        self.memory_bytes *= 2
        self._count = 0
        self.rehashes += 1
        # Slots keep no hash: growth (rare) re-hashes every key.
        keys = self._keys
        for position in old_positions:
            self.insert(keys[position], position)

    def pop(self, key: bytes, hashed: Optional[int] = None) -> Optional[int]:
        """Remove ``key``; its position, or None if it was absent."""
        slot = self._locate(key, hashed)[0]
        if slot < 0:
            return None
        tags = self._tags
        slots = self._slots
        position = slots[slot]
        # Keep the bucket's occupied slots a prefix: shift the rest down
        # (at most three, and at the usual load none or one).
        last = slot | (SLOTS_PER_BUCKET - 1)
        while slot < last and tags[slot + 1]:
            tags[slot] = tags[slot + 1]
            slots[slot] = slots[slot + 1]
            slot += 1
        tags[slot] = 0
        slots[slot] = 0
        self._count -= 1
        return position

    def delete(self, key: bytes, hashed: Optional[int] = None) -> bool:
        return self.pop(key, hashed) is not None

    def remap(self, positions: Sequence[int]) -> None:
        """The owner moved its keys: an entry at ``old`` now sits at
        ``positions[old]``.  Slot order, and so behaviour, is unchanged."""
        self._slots[:] = array(
            "I",
            [positions[p] if tag else 0 for tag, p in zip(self._tags, self._slots)],
        )

    def items(self) -> Iterator[Tuple[bytes, int]]:
        """``(key, position)`` per occupied slot, in slot order."""
        keys = self._keys
        for tag, position in zip(self._tags, self._slots):
            if tag:
                yield keys[position], position
