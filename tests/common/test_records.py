"""Tests for repro.common.records."""

from repro.common.records import KVItem


class TestKVItem:
    def test_size(self):
        assert KVItem(key=b"abc", value=b"de").size == 5

    def test_equality_ignores_hash(self):
        a = KVItem(key=b"k", value=b"v", hashed_key=1)
        b = KVItem(key=b"k", value=b"v", hashed_key=2)
        assert a == b

    def test_inequality_on_value(self):
        assert KVItem(key=b"k", value=b"v1") != KVItem(key=b"k", value=b"v2")

    def test_default_hash_sentinel(self):
        assert KVItem(key=b"k", value=b"v").hashed_key == -1
