"""Tests for repro.common.hashing."""

import hashlib
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import hashing
from repro.common.hashing import fnv1a_64, hash_key


class TestHashKey:
    def test_reference_values(self):
        # Trie layout, shard choice and the golden digests all rest on these.
        assert hash_key(b"") == 0xE4A6A0577479B2B4
        assert hash_key(b"user:42") == 0xD9279B7CB3A5B282
        assert hash_key(b"key:00000000") == 0xD6051DD1DCBE1C4B

    def test_blake2b_is_hashlibs(self):
        # Taken from _blake2 to keep OpenSSL unmapped; the same function.
        assert hashing.blake2b is hashlib.blake2b

    def test_is_64_bit(self):
        for key in (b"", b"a", b"key:000001", b"x" * 100):
            value = hash_key(key)
            assert 0 <= value < 1 << 64

    def test_distinct_keys_distinct_hashes(self):
        hashes = {hash_key(b"key:%06d" % i) for i in range(10_000)}
        assert len(hashes) == 10_000  # 64-bit collisions at 10k: ~0

    def test_deterministic_across_calls(self):
        assert hash_key(b"stable") == hash_key(b"stable")

    def test_top_bits_spread(self):
        # Trie placement uses top bits; they must be well distributed.
        buckets = [0] * 16
        for i in range(16_000):
            buckets[hash_key(b"k%06d" % i) >> 60] += 1
        expected = 1000
        assert all(abs(count - expected) < 200 for count in buckets)

    def test_keeps_no_reference_to_key(self):
        # No memo: hashing a key must not keep it alive.
        key = b"key:%08d" % 12345678
        before = sys.getrefcount(key)
        hash_key(key)
        assert sys.getrefcount(key) == before


class TestFnv:
    def test_known_value_empty(self):
        # FNV-1a offset basis for empty input.
        assert fnv1a_64(b"") == 0xCBF29CE484222325

    def test_seed_changes_output(self):
        assert fnv1a_64(b"x", seed=1) != fnv1a_64(b"x", seed=2)

    @given(st.binary(max_size=64))
    @settings(max_examples=50)
    def test_in_64_bit_range(self, data):
        assert 0 <= fnv1a_64(data) < 1 << 64
