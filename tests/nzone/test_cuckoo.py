"""Tests for the 4-way cuckoo hash table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nzone.cuckoo import SLOT_BYTES, SLOTS_PER_BUCKET, CuckooTable


def keyed(count=0, **kwargs):
    """A table over a key array holding ``key%04d`` at position i < count."""
    keys = [b"key%04d" % i for i in range(count)]
    return keys, CuckooTable(keys, **kwargs)


class TestCuckooTable:
    def test_get_absent(self):
        assert keyed()[1].get(b"missing") is None

    def test_insert_get(self):
        keys, table = keyed(43)
        table.insert(b"key0042", 42)
        assert table.get(b"key0042") == 42
        assert b"key0042" in table
        assert b"key0041" not in table
        assert len(table) == 1

    def test_replace(self):
        keys, table = keyed(3)
        table.insert(b"key0001", 1)
        keys[2] = b"key0001"
        table.insert(b"key0001", 2)
        assert table.get(b"key0001") == 2
        assert len(table) == 1

    def test_delete(self):
        keys, table = keyed(2)
        table.insert(b"key0001", 1)
        assert table.delete(b"key0001") is True
        assert table.delete(b"key0001") is False
        assert b"key0001" not in table
        assert len(table) == 0

    def test_displacement_under_load(self):
        keys, table = keyed(40, initial_buckets=16, seed=1)
        for i in range(40):  # 62 % load on 64 slots: kicks near-certain
            table.insert(keys[i], i)
        for i in range(40):
            assert table.get(keys[i]) == i

    def test_grows_when_walk_fails(self):
        keys, table = keyed(100, initial_buckets=2, seed=2)
        for i in range(100):
            table.insert(keys[i], i)
        assert table.rehashes >= 1
        assert len(table) == 100
        for i in range(100):
            assert table.get(keys[i]) == i

    def test_items_iterates_all(self):
        keys, table = keyed(20)
        for i in range(20):
            table.insert(keys[i], i)
        assert dict(table.items()) == {keys[i]: i for i in range(20)}

    def test_remap_follows_moved_keys(self):
        keys, table = keyed(30, initial_buckets=4, seed=4)
        for i in range(30):
            table.insert(keys[i], i)
        slots_before = [key for key, _position in table.items()]
        keys.reverse()
        table.remap([29 - i for i in range(30)])
        assert [key for key, _position in table.items()] == slots_before
        assert all(table.get(key) == i for i, key in enumerate(keys))

    def test_memory_model(self):
        table = keyed(initial_buckets=1024)[1]
        assert table.memory_bytes == 1024 * SLOTS_PER_BUCKET * SLOT_BYTES

    def test_invalid_buckets(self):
        with pytest.raises(ValueError):
            CuckooTable([], initial_buckets=3)
        with pytest.raises(ValueError):
            CuckooTable([], initial_buckets=0)

    @given(st.sets(st.binary(min_size=1, max_size=16), max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_insert_all_then_find_all(self, keys):
        ordered = sorted(keys)
        table = CuckooTable(ordered, initial_buckets=16, seed=3)
        for index, key in enumerate(ordered):
            table.insert(key, index)
        for index, key in enumerate(ordered):
            assert table.get(key) == index
        assert len(table) == len(keys)
