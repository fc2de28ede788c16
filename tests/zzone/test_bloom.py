"""Tests for the 16-byte Bloom filters.

A block keeps its Content and Access Filters as bare ints and probes them
inline through :data:`~repro.zzone.bloom.PROBE_MASKS`; ``_add`` and
``_contains`` below are that probe, and ``test_block_filter_is_this_probe``
pins them to the block's own.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hashing import hash_key
from repro.common.records import KVItem
from repro.compression import ZlibCompressor
from repro.zzone.bloom import PROBE_MASKS, SIZE_BYTES

from tests.zzone.blocks import build_block


def _mask(hashed_key):
    return PROBE_MASKS[hashed_key & 0x7F][(hashed_key >> 33) & 0x3F]


def _add(bits, hashed_key):
    return bits | _mask(hashed_key)


def _contains(bits, hashed_key):
    mask = _mask(hashed_key)
    return bits & mask == mask


class TestBloom128:
    def test_empty_contains_nothing(self):
        assert not _contains(0, 12345)

    def test_added_key_found(self):
        assert _contains(_add(0, 0xDEADBEEF12345678), 0xDEADBEEF12345678)

    def test_no_false_negatives_bulk(self):
        bits = 0
        keys = [random.Random(1).getrandbits(64) for _ in range(20)]
        for key in keys:
            bits = _add(bits, key)
        assert all(_contains(bits, key) for key in keys)

    def test_block_filter_is_this_probe(self):
        items = [
            KVItem(key=b"k%03d" % i, value=b"v", hashed_key=hash_key(b"k%03d" % i))
            for i in range(20)
        ]
        block = build_block(items, ZlibCompressor())
        bits = 0
        for item in items:
            bits = _add(bits, item.hashed_key)
        assert block.content_bits == bits
        rng = random.Random(3)
        for probe in [rng.getrandbits(64) for _ in range(500)]:
            assert block.maybe_contains(probe) == _contains(bits, probe)

    def test_false_positive_rate_reasonable_at_paper_load(self):
        # ~20 items in 128 bits with 4 probes: the paper observes ~5 %.
        rng = random.Random(7)
        false_positives = 0
        probes = 0
        for _trial in range(200):
            bits = 0
            for _ in range(20):
                bits = _add(bits, rng.getrandbits(64))
            for _ in range(50):
                probes += 1
                if _contains(bits, rng.getrandbits(64)):
                    false_positives += 1
        rate = false_positives / probes
        assert 0.005 < rate < 0.12

    def test_memory_is_16_bytes(self):
        assert SIZE_BYTES == 16
        assert all(mask < 1 << 128 for row in PROBE_MASKS for mask in row)

    @given(st.sets(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=30))
    @settings(max_examples=50)
    def test_never_false_negative_property(self, keys):
        bits = 0
        for key in keys:
            bits = _add(bits, key)
        assert all(_contains(bits, key) for key in keys)


def _four_probe_mask(hashed_key):
    """The double-hash formula the mask table is built from."""
    h1 = hashed_key & 0xFFFFFFFF
    h2 = (hashed_key >> 32) | 1
    mask = 0
    for i in range(4):
        mask |= 1 << ((h1 + i * h2) % 128)
    return mask


class TestProbeMaskTable:
    """The filter reads its probe bits from a table, not the formula."""

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    @settings(max_examples=500)
    def test_table_equals_double_hashing(self, hashed_key):
        mask = _four_probe_mask(hashed_key)
        assert _add(0, hashed_key) == mask
        assert _contains(mask, hashed_key)
        assert not _contains(mask & (mask - 1), hashed_key)  # one bit short

    def test_only_the_indexed_bits_matter(self):
        # Bits 0-6 and 33-38 of the hash pick the entry; setting every
        # other bit keeps the mask.
        other_bits = ((1 << 64) - 1) & ~0x7F & ~(0x3F << 33)
        for low in range(128):
            for odd in range(64):
                hashed = (odd << 33) | low
                assert _add(0, hashed) == _four_probe_mask(hashed)
                assert _add(0, hashed | other_bits) == _four_probe_mask(hashed)
