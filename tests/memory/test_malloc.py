"""Tests for the malloc chunk-overhead model."""

import pytest

from repro.memory.malloc import chunk_size, overhead


class TestMallocModel:
    def test_minimum_chunk(self):
        assert chunk_size(0) == 32
        assert chunk_size(8) == 32

    def test_alignment(self):
        assert chunk_size(100) % 16 == 0
        assert chunk_size(100) >= 108

    def test_overhead_bounded(self):
        for request in (100, 500, 2048):
            assert 0 < overhead(request) <= 8 + 16

    def test_large_blocks_waste_relatively_little(self):
        """§3.2's claim: block-sized allocations make malloc waste moot."""
        assert overhead(2048) / chunk_size(2048) < 0.02
        assert overhead(100) / chunk_size(100) > 0.05

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            chunk_size(-1)
