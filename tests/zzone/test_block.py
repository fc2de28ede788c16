"""Tests for Z-zone blocks."""

import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hashing import hash_key
from repro.common.records import KVItem
from repro.compression import NullCompressor, ZlibCompressor
from repro.zzone.block import (
    BLOCK_METADATA_BYTES,
    Block,
    LargeItem,
    decode_items,
    item_entry,
)

from tests.zzone.blocks import build_block


def verified_container(block, codec):
    """``block``'s container as the zone reads it: CRC, then decompress."""
    assert block.checksum_ok()
    container = codec.decompress(block.compressed)
    assert len(container) == block.uncompressed_size
    return container


def lookup(block, key, codec):
    return block.scan(verified_container(block, codec), key, hash_key(key))


def make_items(count, value_size=40, prefix=b"k"):
    items = []
    for i in range(count):
        key = prefix + b"%06d" % i
        items.append(
            KVItem(key=key, value=bytes([i % 251]) * value_size, hashed_key=hash_key(key))
        )
    return items


def encode(items):
    """A container of ``items``, joined from their entries as the zone does."""
    return b"".join(item_entry(i.key, i.value, i.hashed_key)[2] for i in items)


class TestEncoding:
    def test_roundtrip(self):
        items = make_items(10)
        assert decode_items(encode(items)) == items

    def test_empty(self):
        assert decode_items(encode([])) == []

    def test_missing_hash_rejected(self):
        with pytest.raises(ValueError):
            encode([KVItem(key=b"k", value=b"v")])

    def test_hashed_keys_preserved(self):
        items = make_items(3)
        decoded = decode_items(encode(items))
        assert [d.hashed_key for d in decoded] == [i.hashed_key for i in items]

    @given(
        st.lists(
            st.tuples(st.binary(min_size=1, max_size=30), st.binary(max_size=100)),
            max_size=20,
            unique_by=lambda kv: kv[0],
        )
    )
    @settings(max_examples=40)
    def test_roundtrip_property(self, pairs):
        items = [
            KVItem(key=k, value=v, hashed_key=hash_key(k)) for k, v in pairs
        ]
        assert decode_items(encode(items)) == items


class TestBlockBuild:
    def test_items_sorted_by_hash(self):
        block = build_block(make_items(20), NullCompressor())
        decoded = decode_items(verified_container(block, NullCompressor()))
        hashes = [item.hashed_key for item in decoded]
        assert hashes == sorted(hashes)

    def test_item_count(self):
        assert build_block(make_items(7), NullCompressor()).item_count == 7

    def test_uncompressed_size_counts_headers(self):
        items = make_items(5, value_size=10)
        block = build_block(items, NullCompressor())
        expected = sum(14 + item.size for item in items)
        assert block.uncompressed_size == expected

    def test_content_filter_covers_all(self):
        items = make_items(15)
        block = build_block(items, ZlibCompressor())
        assert all(block.maybe_contains(item.hashed_key) for item in items)

    def test_empty_block(self):
        block = build_block([], NullCompressor())
        assert block.item_count == 0
        assert lookup(block, b"missing", NullCompressor()) is None


class TestBlockLookup:
    def test_finds_every_item(self):
        codec = ZlibCompressor()
        items = make_items(25)
        block = build_block(items, codec)
        for item in items:
            assert lookup(block, item.key, codec) == item.value

    def test_absent_key_returns_none(self):
        codec = ZlibCompressor()
        block = build_block(make_items(10), codec)
        assert lookup(block, b"nope", codec) is None

    def test_single_item(self):
        codec = NullCompressor()
        items = make_items(1)
        block = build_block(items, codec)
        assert lookup(block, items[0].key, codec) == items[0].value

    def test_index_narrowing_still_correct(self):
        # >8 items exercises the 8-offset sparse index path.
        codec = NullCompressor()
        items = make_items(64, value_size=8)
        block = build_block(items, codec)
        for item in items:
            assert lookup(block, item.key, codec) == item.value


class TestRecordGet:
    def test_first_access_returns_none(self):
        block = build_block(make_items(3), NullCompressor())
        assert block.record_get(111, now=1.0) is None

    def test_reaccess_returns_gap(self):
        block = build_block(make_items(3), NullCompressor())
        block.record_get(111, now=1.0)
        assert block.record_get(111, now=3.5) == pytest.approx(2.5)

    def test_only_two_slots_kept(self):
        block = build_block(make_items(3), NullCompressor())
        block.record_get(1, now=1.0)
        block.record_get(2, now=2.0)
        block.record_get(3, now=3.0)  # displaces the older record (1)
        assert block.record_get(1, now=4.0) is None  # record was lost
        # ... and 1 displaced the older of the two kept (2), not 3.
        assert block.record_get(3, now=5.0) == pytest.approx(2.0)
        assert block.record_get(2, now=6.0) is None

    def test_access_filter_updated(self):
        block = build_block(make_items(3), NullCompressor())
        assert not block.was_accessed(12345)
        block.record_get(12345, now=0.0)
        assert block.was_accessed(12345)


class TestAccounting:
    def test_memory_includes_metadata(self):
        block = build_block(make_items(5), NullCompressor())
        assert block.memory_bytes == block.stored_bytes + BLOCK_METADATA_BYTES

    def test_large_ref_charged(self):
        codec = NullCompressor()
        block = build_block([], codec)
        large = LargeItem(
            key=b"big",
            hashed_key=hash_key(b"big"),
            compressed=codec.compress(b"x" * 3000),
            uncompressed_size=3000,
        )
        base = block.memory_bytes
        block.add_large(large)
        assert block.memory_bytes == base + large.memory_bytes
        assert block.maybe_contains(large.hashed_key)


class TestHostMemory:
    """What a block costs the process beyond the bytes it is charged.

    Figure 7 charges ``BLOCK_METADATA_BYTES`` (116 B) per block; the
    Python objects behind that metadata cost more.  Measured over a few
    thousand blocks of 20 items (the paper's 2 KB block), excluding each
    block's compressed payload object.  The list-based layout (records as
    a list of tuples, two index arrays, two filter objects, a private
    empty large-ref dict) cost ~900 B fresh and ~1,140 B after three hits.
    """

    BLOCKS = 2000

    def _blocks_and_cost(self, hits):
        groups = []
        for g in range(self.BLOCKS):
            entries = []
            for i in range(20):
                key = b"host:%07d" % (g * 20 + i)
                value = b"value %d of group %d " % (i, g) * 5
                entries.append(item_entry(key, value, hash_key(key)))
            groups.append(sorted(entries))
        codec = ZlibCompressor()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            blocks = [Block.from_entries(entries, codec) for entries in groups]
            for block, entries in zip(blocks, groups):
                for now, (hashed, _key, _wire) in enumerate(entries[:hits]):
                    block.record_get(hashed, float(now))
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        payload = sum(sys.getsizeof(block.compressed.payload) for block in blocks)
        return (grown - payload) / len(blocks)

    def test_host_bytes_per_block_excluding_payload(self):
        per_block = self._blocks_and_cost(hits=0)
        assert per_block <= 750, per_block

    def test_host_bytes_per_block_after_three_gets(self):
        # Distinct keys: both records taken, one replaced, the Access
        # Filter set.
        per_block = self._blocks_and_cost(hits=3)
        assert per_block <= 850, per_block
