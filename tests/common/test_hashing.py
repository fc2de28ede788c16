"""Tests for repro.common.hashing."""

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hashing import (
    fnv1a_64,
    hash_key,
    hash_key_murmur,
    murmur3_32,
)


class TestMurmur3:
    """Reference vectors from Austin Appleby's murmur3 test suite."""

    def test_empty_seed_zero(self):
        assert murmur3_32(b"", 0) == 0

    def test_empty_seed_one(self):
        assert murmur3_32(b"", 1) == 0x514E28B7

    def test_known_vector_hello(self):
        # Widely published vector: murmur3_32("hello", 0).
        assert murmur3_32(b"hello", 0) == 0x248BFA47

    def test_known_vector_hello_world(self):
        assert murmur3_32(b"hello, world", 0) == 0x149BBB7F

    def test_known_vector_with_seed(self):
        assert murmur3_32(b"hello", 0x2A) == 0xE2DBD2E1

    def test_tail_lengths(self):
        # Exercise all tail branches (len % 4 in {0,1,2,3}).
        results = {murmur3_32(b"a" * n) for n in range(1, 9)}
        assert len(results) == 8

    def test_deterministic(self):
        assert murmur3_32(b"key") == murmur3_32(b"key")


class TestHashKey:
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

    def test_murmur_variant_matches_reference_rounds(self):
        value = hash_key_murmur(b"hello")
        assert value >> 32 == murmur3_32(b"hello", 0)


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
