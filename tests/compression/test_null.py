"""Tests for repro.compression.null."""

from repro.compression.null import NullCompressor


class TestNullCompressor:
    def test_roundtrip(self):
        codec = NullCompressor()
        data = b"payload"
        assert codec.decompress(codec.compress(data)) == data

    def test_stored_size_is_input_size(self):
        assert NullCompressor().compress(b"12345").stored_size == 5

    def test_ratio_is_one(self):
        data = b"aaaa" * 100
        assert NullCompressor().compress(data).stored_size == len(data)
