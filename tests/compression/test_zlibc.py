"""Tests for repro.compression.zlibc."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.zlibc import ZlibCompressor


class TestZlibCompressor:
    def test_roundtrip_simple(self):
        codec = ZlibCompressor()
        data = b"hello world " * 100
        assert codec.decompress(codec.compress(data)) == data

    def test_roundtrip_empty(self):
        codec = ZlibCompressor()
        assert codec.decompress(codec.compress(b"")) == b""

    def test_compressible_data_shrinks(self):
        codec = ZlibCompressor()
        data = b"a" * 4096
        assert codec.compress(data).stored_size < len(data)

    def test_incompressible_stored_raw(self):
        codec = ZlibCompressor()
        data = os.urandom(512)
        compressed = codec.compress(data)
        # Raw fallback: at most one marker byte of overhead.
        assert compressed.stored_size <= len(data) + 1
        assert codec.decompress(compressed) == data

    def test_stored_size_matches_payload(self):
        codec = ZlibCompressor()
        compressed = codec.compress(b"x" * 1000)
        assert compressed.stored_size == len(compressed.payload)

    def test_ratio_above_one_for_redundant(self):
        data = b"ab" * 1000
        assert len(data) / ZlibCompressor().compress(data).stored_size > 5.0

    def test_level_validation(self):
        with pytest.raises(ValueError):
            ZlibCompressor(level=10)
        with pytest.raises(ValueError):
            ZlibCompressor(level=-2)

    def test_higher_level_not_worse(self):
        data = (b"the quick brown fox jumps over the lazy dog " * 50)[:2048]
        fast = ZlibCompressor(level=1).compress(data).stored_size
        best = ZlibCompressor(level=9).compress(data).stored_size
        assert best <= fast

    def test_name_reflects_level(self):
        assert ZlibCompressor(level=3).name == "deflate-3"

    def test_corrupt_marker_rejected(self):
        codec = ZlibCompressor()
        from repro.compression.base import Compressed

        with pytest.raises(ValueError):
            codec.decompress(Compressed(payload=b"\x07junk", stored_size=5))

    def test_empty_payload_rejected(self):
        codec = ZlibCompressor()
        from repro.compression.base import Compressed

        with pytest.raises(ValueError):
            codec.decompress(Compressed(payload=b"", stored_size=0))

    @given(st.binary(max_size=4096))
    @settings(max_examples=60)
    def test_roundtrip_property(self, data):
        codec = ZlibCompressor()
        assert codec.decompress(codec.compress(data)) == data
