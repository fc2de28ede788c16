"""Tests for the 16-byte Bloom filters."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.zzone.bloom import Bloom128


class TestBloom128:
    def test_empty_contains_nothing(self):
        bloom = Bloom128()
        assert 12345 not in bloom
        assert bloom.bit_count == 0

    def test_added_key_found(self):
        bloom = Bloom128()
        bloom.add(0xDEADBEEF12345678)
        assert 0xDEADBEEF12345678 in bloom

    def test_no_false_negatives_bulk(self):
        bloom = Bloom128()
        keys = [random.Random(1).getrandbits(64) for _ in range(20)]
        for key in keys:
            bloom.add(key)
        assert all(key in bloom for key in keys)

    def test_clear(self):
        bloom = Bloom128()
        bloom.add(42)
        bloom.clear()
        assert 42 not in bloom
        assert bloom.bit_count == 0

    def test_false_positive_rate_reasonable_at_paper_load(self):
        # ~20 items in 128 bits with 4 probes: the paper observes ~5 %.
        rng = random.Random(7)
        false_positives = 0
        probes = 0
        for _trial in range(200):
            bloom = Bloom128()
            for _ in range(20):
                bloom.add(rng.getrandbits(64))
            for _ in range(50):
                probes += 1
                if rng.getrandbits(64) in bloom:
                    false_positives += 1
        rate = false_positives / probes
        assert 0.005 < rate < 0.12

    def test_estimate_tracks_load(self):
        bloom = Bloom128()
        assert bloom.false_positive_rate() == 0.0
        for i in range(20):
            bloom.add(random.Random(i).getrandbits(64))
        assert 0.001 < bloom.false_positive_rate() < 0.2

    def test_memory_is_16_bytes(self):
        assert Bloom128().memory_bytes == 16

    @given(st.sets(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=30))
    @settings(max_examples=50)
    def test_never_false_negative_property(self, keys):
        bloom = Bloom128()
        for key in keys:
            bloom.add(key)
        assert all(key in bloom for key in keys)


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
        bloom = Bloom128()
        bloom.add(hashed_key)
        mask = _four_probe_mask(hashed_key)
        assert bloom._bits == mask
        assert hashed_key in bloom
        bloom._bits = mask & (mask - 1)  # drop one probe bit
        assert hashed_key not in bloom

    def test_only_the_indexed_bits_matter(self):
        # Bits 0-6 and 33-38 of the hash pick the entry; setting every
        # other bit keeps the mask.
        other_bits = ((1 << 64) - 1) & ~0x7F & ~(0x3F << 33)
        for low in range(128):
            for odd in range(64):
                hashed = (odd << 33) | low
                bloom = Bloom128()
                bloom.add(hashed)
                assert bloom._bits == _four_probe_mask(hashed)
                bloom.clear()
                bloom.add(hashed | other_bits)
                assert bloom._bits == _four_probe_mask(hashed)
