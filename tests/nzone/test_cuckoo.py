"""Tests for the 4-way cuckoo hash table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nzone.cuckoo import SLOT_BYTES, SLOTS_PER_BUCKET, CuckooTable


class TestCuckooTable:
    def test_get_absent(self):
        assert CuckooTable().get(b"missing") is None

    def test_insert_get(self):
        table = CuckooTable()
        table.insert(b"key", 42)
        assert table.get(b"key") == 42
        assert b"key" in table
        assert len(table) == 1

    def test_replace(self):
        table = CuckooTable()
        table.insert(b"key", 1)
        table.insert(b"key", 2)
        assert table.get(b"key") == 2
        assert len(table) == 1

    def test_delete(self):
        table = CuckooTable()
        table.insert(b"key", 1)
        assert table.delete(b"key") is True
        assert table.delete(b"key") is False
        assert b"key" not in table
        assert len(table) == 0

    def test_displacement_under_load(self):
        table = CuckooTable(initial_buckets=16, max_kicks=100, seed=1)
        for i in range(40):  # 62 % load on 64 slots: kicks near-certain
            table.insert(b"key%04d" % i, i)
        for i in range(40):
            assert table.get(b"key%04d" % i) == i

    def test_grows_when_walk_fails(self):
        table = CuckooTable(initial_buckets=2, max_kicks=10, seed=2)
        for i in range(100):
            table.insert(b"key%04d" % i, i)
        assert table.rehashes >= 1
        assert len(table) == 100
        for i in range(100):
            assert table.get(b"key%04d" % i) == i

    def test_items_iterates_all(self):
        table = CuckooTable()
        for i in range(20):
            table.insert(b"key%02d" % i, i)
        assert dict(table.items()) == {b"key%02d" % i: i for i in range(20)}

    def test_memory_model(self):
        table = CuckooTable(initial_buckets=1024)
        assert table.memory_bytes == 1024 * SLOTS_PER_BUCKET * SLOT_BYTES

    def test_invalid_buckets(self):
        with pytest.raises(ValueError):
            CuckooTable(initial_buckets=3)
        with pytest.raises(ValueError):
            CuckooTable(initial_buckets=0)

    @given(st.sets(st.binary(min_size=1, max_size=16), max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_insert_all_then_find_all(self, keys):
        table = CuckooTable(initial_buckets=16, seed=3)
        for index, key in enumerate(sorted(keys)):
            table.insert(key, index)
        for index, key in enumerate(sorted(keys)):
            assert table.get(key) == index
        assert len(table) == len(keys)
