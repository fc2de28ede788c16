"""Compressed item containers (the Z-zone's *blocks*, §3.1–3.2).

A block compacts KV items into one container that is compressed as a
whole.  Inside the container, items are sorted by hashed key (§3.2 cites
SILT's sorted store) and a small index of up to eight evenly spaced
(hashed-key, offset) pairs is kept *outside* the compressed payload so a
lookup only scans a fraction of the decompressed bytes.

Every block carries:

* a 16-byte **Content Filter** recording the keys stored in it, checked
  before any decompression;
* a 16-byte **Access Filter** recording recently GET-hit keys, consumed by
  the sweep replacement;
* two **recent-access records** (4-byte hashed key + 4-byte timestamp
  each) used by the re-use-time promotion rule (§3.3.2);
* references to *large items* (> half the block capacity) that are
  compressed individually and live outside the container (footnote 3).

Host layout, packed so a block costs the process little beyond what
Figure 7 charges it: each filter is a bare 128-bit int
(``content_bits``, ``access_bits``, probed through
:data:`~repro.zzone.bloom.PROBE_MASKS`); the records are one ``bytes`` of
up to two 12-byte ``(tag, time)`` structs, empty until the first hit; the
sparse index is one exactly sized ``array('I')`` of the entries' top 32
hash bits followed by their offsets; and every block without large items
shares one read-only empty map, as every block without staged puts
shares one empty staged index.

Blocks are immutable value containers: inserting or removing items builds
a replacement block (the paper's "writing a new item into a block always
leads to its reconstruction") — with one amortisation the paper itself
prescribes: each block may carry a small *write-combining append region*
(§3.2's uncompressed space), an uncompressed staging buffer that absorbs
puts in O(item) and is merged into the compressed container only when it
fills.  The staged bytes are CRC-guarded like the container and charged
to block memory, so the Figure 7 accounting holds.
"""

from __future__ import annotations

import bisect
import itertools
import struct
import zlib
from array import array
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.common.records import KVItem
from repro.compression.base import Compressed, Compressor
from repro.zzone.bloom import PROBE_MASKS

#: Fixed per-block metadata charged by the memory accounting, following the
#: paper's layout: Content Filter (16 B) + Access Filter (16 B) + two
#: recent-access records (16 B) + 8 two-byte index offsets with 8 four-byte
#: index hashes (48 B) + trie pointer (4 B) + circular-list link (8 B) +
#: item count and sizes (8 B).  The CRC32 payload checksum added for block
#: integrity rides inside the existing count/size word's padding and is
#: deliberately *not* charged, so memory-breakdown results stay comparable
#: with the paper's layout.
BLOCK_METADATA_BYTES = 16 + 16 + 16 + 48 + 4 + 8 + 8

_crc32 = zlib.crc32

_INDEX_FANOUT = 8

#: The sparse index of a block with no entries; never written.
_NO_INDEX = array("I")

#: A recent-access record: 4-byte hashed-key tag, 8-byte timestamp.
_RECORD = struct.Struct("=Id")
_RECORD_SIZE = _RECORD.size  # 12
_pack_record = _RECORD.pack
_unpack_record = _RECORD.unpack_from


#: Per-item wire header: 8-byte big-endian hashed key, 2-byte key length,
#: 4-byte value length.  One module-level Struct serves both directions;
#: rebuilding it per call used to cost a dict lookup and a parse on every
#: block reconstruction.
_HEADER = struct.Struct(">QHI")
_HEADER_SIZE = _HEADER.size  # 14
_pack_header = _HEADER.pack
_unpack_header = _HEADER.unpack_from


def decode_items(container: bytes) -> List[KVItem]:
    """Decode every item of a serialised container."""
    items: List[KVItem] = []
    append = items.append
    pos = 0
    end = len(container)
    while pos < end:
        hashed, klen, vlen = _unpack_header(container, pos)
        key_start = pos + _HEADER_SIZE
        value_start = key_start + klen
        pos = value_start + vlen
        append(
            KVItem(
                key=container[key_start:value_start],
                value=container[value_start:pos],
                hashed_key=hashed,
            )
        )
    return items


#: A container entry as the zone's write path handles it: ``(hashed_key,
#: key, wire)``, ``wire`` being the entry's complete wire-format bytes
#: (header, key, value).  Every reconstruction — merge, sweep, delete —
#: filters and re-joins these; values are never decoded on the way, and
#: plain tuple order is the container's canonical (hashed key, key) order.
Entry = Tuple[int, bytes, bytes]


def item_entry(key: bytes, value: bytes, hashed_key: int) -> Entry:
    """The :data:`Entry` of one item.

    Wire format per item: 8-byte big-endian hashed key, 2-byte key length,
    4-byte value length, key bytes, value bytes.  Big-endian hashed keys
    make lexicographic order equal numeric order, which the sorted layout
    relies on.
    """
    if hashed_key < 0:
        raise ValueError(f"item {key!r} is missing its hashed key")
    return hashed_key, key, _pack_header(hashed_key, len(key), len(value)) + key + value


def container_entries(container: bytes) -> List[Entry]:
    """Split a serialised container into its entries, in stored order."""
    entries: List[Entry] = []
    append = entries.append
    pos = 0
    end = len(container)
    while pos < end:
        hashed, klen, vlen = _unpack_header(container, pos)
        key_start = pos + _HEADER_SIZE
        nxt = key_start + klen + vlen
        append((hashed, container[key_start : key_start + klen], container[pos:nxt]))
        pos = nxt
    return entries


#: Monotonic block identity for a read batch's memos.  Blocks are
#: immutable, so a generation uniquely names one container's bytes for
#: the life of the process; any rebuild produces a new block with a new
#: generation, which is what invalidates memo entries.
_BLOCK_GENERATION = itertools.count(1)

#: The staged index of every block that has never staged a put (most
#: never do; a private empty dict and bytearray would cost ~120 B a
#: block).  Read-only, so only :meth:`Block.stage_put`, which swaps in a
#: dict and a bytearray of the block's own, can write to a region.
_NO_STAGED_INDEX: Mapping[bytes, int] = MappingProxyType({})

#: The large refs of every block that has none (nearly all), read-only
#: for the same reason: :meth:`Block.add_large` swaps in a dict of the
#: block's own, and the zone hands a rebuilt block this map, not ``{}``.
NO_LARGE_REFS: Mapping[bytes, "LargeItem"] = MappingProxyType({})


class Block:
    """One immutable compressed container plus its metadata."""

    __slots__ = (
        "depth",
        "prefix",
        "compressed",
        "uncompressed_size",
        "item_count",
        "content_bits",
        "access_bits",
        "_recent",
        "large_refs",
        "checksum",
        "codec",
        "_index",
        "_base_bytes",
        "next_block",
        "prev_block",
        "staged_buffer",
        "staged_index",
        "staged_checksum",
        "generation",
    )

    def __init__(
        self,
        depth: int,
        prefix: int,
        compressed: Compressed,
        uncompressed_size: int,
        item_count: int,
        content_bits: int,
        index: "array[int]",
        large_refs: Optional[Dict[bytes, "LargeItem"]] = None,
        codec: Optional[Compressor] = None,
    ) -> None:
        self.depth = depth
        self.prefix = prefix
        self.compressed = compressed
        self.uncompressed_size = uncompressed_size
        self.item_count = item_count
        #: The Content Filter's and the Access Filter's 128 bits.
        self.content_bits = content_bits
        self.access_bits = 0
        #: Up to two packed (tag, timestamp) records for the promotion
        #: rule, the first one first; see :meth:`record_get`.
        self._recent = b""
        self.large_refs: Mapping[bytes, LargeItem] = large_refs or NO_LARGE_REFS
        #: CRC32 over the compressed payload, checked before decompression.
        self.checksum = _crc32(compressed.payload)
        #: The codec that wrote this container.  The zone decompresses with
        #: it rather than with its *current* codec, so a codec-fallback
        #: switch never strands blocks written under the previous codec.
        self.codec = codec
        #: Sparse index: the top 32 hash bits of up to eight evenly
        #: spaced entries, then their container offsets.
        self._index = index
        # Container + fixed metadata never change after construction
        # (blocks are immutable); only large_refs can still vary.
        self._base_bytes = compressed.stored_size + BLOCK_METADATA_BYTES
        # Circular sweep-list links, managed by the zone.
        self.next_block: Optional[Block] = None
        self.prev_block: Optional[Block] = None
        #: Write-combining append region (§3.2's uncompressed space).  Raw
        #: container-format entries land here in O(item); the compressed
        #: container is only rebuilt when the region fills.  The buffer is
        #: append-only — a re-put appends a new entry and the index points
        #: at the latest offset (last write wins) — and it is CRC-guarded
        #: incrementally, entry by entry, so staged bytes get the same
        #: single-bit-flip detection as the compressed payload.
        self.staged_buffer: Union[bytes, bytearray] = b""
        self.staged_index: Mapping[bytes, int] = _NO_STAGED_INDEX
        self.staged_checksum = 0
        #: Process-unique identity: a read batch's memos key on it.
        self.generation = next(_BLOCK_GENERATION)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_entries(
        cls,
        entries: List[Entry],
        compressor: Compressor,
        depth: int = 0,
        prefix: int = 0,
        large_refs: Optional[Dict[bytes, "LargeItem"]] = None,
    ) -> "Block":
        """Build a block from ``entries`` already in canonical order.

        The one construction body: the container, the Content Filter and
        the sparse index are all produced in one pass.  Entries sliced
        out of an existing container (their headers are already in wire
        format) give the same bytes as re-encoding the decoded items.
        """
        wires: List[bytes] = []
        append_wire = wires.append
        masks = PROBE_MASKS
        content = 0
        index_tops: List[int] = []
        index_offsets: List[int] = []
        step = max(1, len(entries) // _INDEX_FANOUT)
        offset = 0
        for position, (hashed, _key, wire) in enumerate(entries):
            if position % step == 0 and len(index_tops) < _INDEX_FANOUT:
                index_tops.append(hashed >> 32)
                index_offsets.append(offset)
            append_wire(wire)
            content |= masks[hashed & 0x7F][(hashed >> 33) & 0x3F]
            offset += len(wire)
        if large_refs:
            for large in large_refs.values():
                hashed = large.hashed_key
                content |= masks[hashed & 0x7F][(hashed >> 33) & 0x3F]
        container = b"".join(wires)
        compressed = compressor.compress(container)
        return cls(
            depth=depth,
            prefix=prefix,
            compressed=compressed,
            uncompressed_size=len(container),
            item_count=len(entries),
            content_bits=content,
            # Unboxed and exactly sized: one array, not two grown ones.
            index=array("I", index_tops + index_offsets) if entries else _NO_INDEX,
            large_refs=large_refs,
            codec=compressor,
        )

    # -- write-combining append region (§3.2) ---------------------------------

    def stage_put(self, key: bytes, value: bytes, hashed_key: int) -> bool:
        """Append an item to the staging region; True if the key is new.

        O(item) instead of O(block): no decode, no re-encode, no
        compression.  The entry is written in the container wire format so
        a later flush can merge staged bytes without re-packing, and the
        running CRC is extended over exactly the appended bytes
        (``crc32(a + b) == crc32(b, crc32(a))``).
        """
        entry = item_entry(key, value, hashed_key)[2]
        if self.staged_index is _NO_STAGED_INDEX:
            self.staged_index = {}
            self.staged_buffer = bytearray()
        is_new = key not in self.staged_index
        self.staged_index[key] = len(self.staged_buffer)
        self.staged_buffer += entry
        self.staged_checksum = _crc32(entry, self.staged_checksum)
        self.content_bits |= PROBE_MASKS[hashed_key & 0x7F][(hashed_key >> 33) & 0x3F]
        return is_new

    def staged_lookup(self, key: bytes) -> Optional[bytes]:
        """Value of a staged ``key`` (latest write), or None."""
        offset = self.staged_index.get(key)
        if offset is None:
            return None
        _, klen, vlen = _unpack_header(self.staged_buffer, offset)
        value_start = offset + _HEADER_SIZE + klen
        return bytes(self.staged_buffer[value_start : value_start + vlen])

    def staged_items(self) -> List[KVItem]:
        """Live staged items (shadowed re-puts deduplicated, latest wins)."""
        items: List[KVItem] = []
        buffer = self.staged_buffer
        for key, offset in self.staged_index.items():
            hashed, klen, vlen = _unpack_header(buffer, offset)
            value_start = offset + _HEADER_SIZE + klen
            items.append(
                KVItem(
                    key=key,
                    value=bytes(buffer[value_start : value_start + vlen]),
                    hashed_key=hashed,
                )
            )
        return items

    def staged_checksum_ok(self) -> bool:
        """Whether the staged bytes still match their running CRC32.

        Every small put checks this before it merges, so the empty region
        (all a zone without append regions ever has) answers without a
        CRC call, and a filled one is read in place, not copied.
        """
        if not self.staged_buffer:
            return self.staged_checksum == 0
        return _crc32(self.staged_buffer) == self.staged_checksum

    def adopt_staging(self, donor: "Block") -> None:
        """Carry ``donor``'s append region over to this rebuilt block.

        Sweeping or deleting from a block's compressed container must not
        cost its recently written staged entries their amortisation: the
        replacement block takes the buffer, index, and running CRC as-is,
        and re-registers the staged keys in its freshly built Content
        Filter so membership answers stay complete.
        """
        self.staged_buffer = donor.staged_buffer
        self.staged_index = donor.staged_index
        self.staged_checksum = donor.staged_checksum
        content = self.content_bits
        for offset in self.staged_index.values():
            hashed = _unpack_header(self.staged_buffer, offset)[0]
            content |= PROBE_MASKS[hashed & 0x7F][(hashed >> 33) & 0x3F]
        self.content_bits = content

    @property
    def staged_count(self) -> int:
        """Distinct live keys in the staging region."""
        return len(self.staged_index)

    @property
    def staged_bytes(self) -> int:
        """Raw bytes held by the staging region (charged to the block)."""
        return len(self.staged_buffer)

    # -- integrity -----------------------------------------------------------

    def checksum_ok(self) -> bool:
        """Whether the compressed payload still matches its stored CRC32."""
        return _crc32(self.compressed.payload) == self.checksum

    # -- lookups ------------------------------------------------------------

    def maybe_contains(self, hashed_key: int) -> bool:
        """Content-Filter check; False means definitely absent."""
        mask = PROBE_MASKS[hashed_key & 0x7F][(hashed_key >> 33) & 0x3F]
        return self.content_bits & mask == mask

    def was_accessed(self, hashed_key: int) -> bool:
        """Access-Filter check: whether ``hashed_key`` may have been hit
        since the sweep last cleared the filter."""
        mask = PROBE_MASKS[hashed_key & 0x7F][(hashed_key >> 33) & 0x3F]
        return self.access_bits & mask == mask

    def scan(self, container: bytes, key: bytes, hashed_key: int) -> Optional[bytes]:
        """Find ``key`` in ``container``, this block's decompressed and
        verified container (the zone's ``_container_of``).

        The scan starts at the last index entry whose top 32 hash bits
        are below the key's: every entry before it hashes lower, and the
        layout is sorted, so the key cannot precede it.
        """
        pos = 0
        index = self._index
        if index:
            count = len(index) >> 1
            slot = bisect.bisect_left(index, hashed_key >> 32, 0, count) - 1
            if slot >= 0:
                pos = index[count + slot]
        end = len(container)
        while pos < end:
            item_hash, klen, vlen = _unpack_header(container, pos)
            if item_hash > hashed_key:
                return None  # sorted layout: passed the possible position
            key_start = pos + _HEADER_SIZE
            value_start = key_start + klen
            if item_hash == hashed_key and container[key_start:value_start] == key:
                return container[value_start : value_start + vlen]
            pos = value_start + vlen
        return None

    # -- access tracking (§3.2, §3.3.2) --------------------------------------

    def record_get(self, hashed_key: int, now: float) -> Optional[float]:
        """Mark a GET hit; return the re-use time if this is a re-access.

        Adds the key to the Access Filter and manages the block's two
        recent-access records: a key found in a record yields its time gap
        (for the promotion decision); otherwise the key fills the second
        record, or, both taken, replaces the older (the first on a tie).
        """
        self.access_bits |= PROBE_MASKS[hashed_key & 0x7F][(hashed_key >> 33) & 0x3F]
        tag = hashed_key & 0xFFFFFFFF
        record = _pack_record(tag, now)
        records = self._recent
        if not records:
            self._recent = record
            return None
        first_tag, first_time = _unpack_record(records)
        if first_tag == tag:
            self._recent = record + records[_RECORD_SIZE:]
            return now - first_time
        if len(records) == _RECORD_SIZE:
            self._recent = records + record
            return None
        second_tag, second_time = _unpack_record(records, _RECORD_SIZE)
        if second_tag == tag:
            self._recent = records[:_RECORD_SIZE] + record
            return now - second_time
        if second_time < first_time:
            self._recent = records[:_RECORD_SIZE] + record
        else:
            self._recent = record + records[_RECORD_SIZE:]
        return None

    def add_large(self, large: "LargeItem") -> None:
        """Reference ``large`` from this block and record it in the
        Content Filter (a block that had none gets a map of its own)."""
        if self.large_refs is NO_LARGE_REFS:
            self.large_refs = {}
        self.large_refs[large.key] = large
        hashed = large.hashed_key
        self.content_bits |= PROBE_MASKS[hashed & 0x7F][(hashed >> 33) & 0x3F]

    # -- accounting ----------------------------------------------------------

    @property
    def stored_bytes(self) -> int:
        """Bytes charged for the compressed container itself."""
        return self.compressed.stored_size

    @property
    def memory_bytes(self) -> int:
        """Container + fixed metadata + staged bytes + large-item refs.

        Staged bytes are charged in full so the append region competes for
        the same budget as compressed data (Figure 7's accounting): staging
        trades compression ratio for write cost only within the block's
        configured envelope.
        """
        total = self._base_bytes + len(self.staged_buffer)
        if not self.large_refs:
            return total
        return total + sum(ref.memory_bytes for ref in self.large_refs.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Block(depth={self.depth}, prefix={self.prefix:b}, "
            f"items={self.item_count}, stored={self.stored_bytes}B)"
        )


class LargeItem:
    """An item too big to compact (> half the block capacity, footnote 3).

    Compressed individually; the owning block keeps a reference and its
    Content Filter records the key.
    """

    __slots__ = (
        "key",
        "hashed_key",
        "compressed",
        "uncompressed_size",
        "accessed",
        "checksum",
        "codec",
    )

    #: Pointer from the block + key hash + bookkeeping, per the paper's
    #: "a pointer recording its address is stored in the block".
    _REF_OVERHEAD = 16

    def __init__(
        self,
        key: bytes,
        hashed_key: int,
        compressed: Compressed,
        uncompressed_size: int,
        codec: Optional[Compressor] = None,
    ) -> None:
        self.key = key
        self.hashed_key = hashed_key
        self.compressed = compressed
        self.uncompressed_size = uncompressed_size
        #: Reference bit for sweep eviction.
        self.accessed = False
        #: Same integrity metadata as blocks (see :class:`Block`).
        self.checksum = _crc32(compressed.payload)
        self.codec = codec

    def checksum_ok(self) -> bool:
        """Whether the compressed payload still matches its stored CRC32."""
        return _crc32(self.compressed.payload) == self.checksum

    @property
    def memory_bytes(self) -> int:
        return self.compressed.stored_size + self._REF_OVERHEAD
