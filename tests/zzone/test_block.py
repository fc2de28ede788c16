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
    encode_items,
    item_entry,
)


def make_items(count, value_size=40, prefix=b"k"):
    items = []
    for i in range(count):
        key = prefix + b"%06d" % i
        items.append(
            KVItem(key=key, value=bytes([i % 251]) * value_size, hashed_key=hash_key(key))
        )
    return items


class TestEncoding:
    def test_roundtrip(self):
        items = make_items(10)
        assert decode_items(encode_items(items)) == items

    def test_empty(self):
        assert decode_items(encode_items([])) == []

    def test_missing_hash_rejected(self):
        with pytest.raises(ValueError):
            encode_items([KVItem(key=b"k", value=b"v")])

    def test_hashed_keys_preserved(self):
        items = make_items(3)
        decoded = decode_items(encode_items(items))
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
        assert decode_items(encode_items(items)) == items


class TestBlockBuild:
    def test_items_sorted_by_hash(self):
        block = Block.build(make_items(20), NullCompressor())
        decoded = block.items(NullCompressor())
        hashes = [item.hashed_key for item in decoded]
        assert hashes == sorted(hashes)

    def test_item_count(self):
        assert Block.build(make_items(7), NullCompressor()).item_count == 7

    def test_uncompressed_size_counts_headers(self):
        items = make_items(5, value_size=10)
        block = Block.build(items, NullCompressor())
        expected = sum(14 + item.size for item in items)
        assert block.uncompressed_size == expected

    def test_content_filter_covers_all(self):
        items = make_items(15)
        block = Block.build(items, ZlibCompressor())
        assert all(block.maybe_contains(item.hashed_key) for item in items)

    def test_empty_block(self):
        block = Block.build([], NullCompressor())
        assert block.item_count == 0
        assert block.lookup(b"missing", hash_key(b"missing"), NullCompressor()) is None


class TestBlockLookup:
    def test_finds_every_item(self):
        codec = ZlibCompressor()
        items = make_items(25)
        block = Block.build(items, codec)
        for item in items:
            assert block.lookup(item.key, item.hashed_key, codec) == item.value

    def test_absent_key_returns_none(self):
        codec = ZlibCompressor()
        block = Block.build(make_items(10), codec)
        assert block.lookup(b"nope", hash_key(b"nope"), codec) is None

    def test_single_item(self):
        codec = NullCompressor()
        items = make_items(1)
        block = Block.build(items, codec)
        assert block.lookup(items[0].key, items[0].hashed_key, codec) == items[0].value

    def test_index_narrowing_still_correct(self):
        # >8 items exercises the 8-offset sparse index path.
        codec = NullCompressor()
        items = make_items(64, value_size=8)
        block = Block.build(items, codec)
        for item in items:
            assert block.lookup(item.key, item.hashed_key, codec) == item.value


class TestRecordGet:
    def test_first_access_returns_none(self):
        block = Block.build(make_items(3), NullCompressor())
        assert block.record_get(111, now=1.0) is None

    def test_reaccess_returns_gap(self):
        block = Block.build(make_items(3), NullCompressor())
        block.record_get(111, now=1.0)
        assert block.record_get(111, now=3.5) == pytest.approx(2.5)

    def test_only_two_slots_kept(self):
        block = Block.build(make_items(3), NullCompressor())
        block.record_get(1, now=1.0)
        block.record_get(2, now=2.0)
        block.record_get(3, now=3.0)  # displaces the older record (1)
        assert len(block.recent_accesses) == 2
        assert block.record_get(1, now=4.0) is None  # record was lost

    def test_access_filter_updated(self):
        block = Block.build(make_items(3), NullCompressor())
        block.record_get(12345, now=0.0)
        assert 12345 in block.access_filter


class TestAccounting:
    def test_memory_includes_metadata(self):
        block = Block.build(make_items(5), NullCompressor())
        assert block.memory_bytes == block.stored_bytes + BLOCK_METADATA_BYTES

    def test_large_ref_charged(self):
        codec = NullCompressor()
        block = Block.build([], codec)
        large = LargeItem(
            key=b"big",
            hashed_key=hash_key(b"big"),
            compressed=codec.compress(b"x" * 3000),
            uncompressed_size=3000,
        )
        base = block.memory_bytes
        block.large_refs[b"big"] = large
        assert block.memory_bytes == base + large.memory_bytes


class TestHostMemory:
    """What a block costs the process beyond the bytes it is charged.

    Figure 7 charges ``BLOCK_METADATA_BYTES`` per block; the Python
    objects behind that metadata cost more.  Measured over a few thousand
    blocks of 20 items (the paper's 2 KB block), excluding each block's
    compressed payload object.
    """

    BLOCKS = 2000

    def test_host_bytes_per_block_excluding_payload(self):
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
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        payload = sum(sys.getsizeof(block.compressed.payload) for block in blocks)
        per_block = (grown - payload) / len(blocks)
        assert per_block < 1000, per_block
