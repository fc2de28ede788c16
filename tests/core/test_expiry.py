"""Tests for TTL support: the core holds ``key -> value`` only, and a key's
deadline lives in the server's store (``repro.server.meta.ItemMetaStore``)
beside its flags and CAS, read on the store's one clock.

``TestExpiryIndex`` pins the store's deadline bookkeeping (the entry's
deadline slot and the heap of due times); ``TestZExpanderTTL`` pins a
ZExpander served behind the store.  ``store.expire(keys)`` is what the
server runs once per dispatched command: a bounded purge of due keys,
then the command's read keys.
"""

import pytest

from repro.common.clock import VirtualClock
from repro.core import ZExpander, ZExpanderConfig
from repro.server.meta import PURGE_LIMIT, ItemMetaStore


def make_store():
    clock = VirtualClock()
    cache = ZExpander(
        ZExpanderConfig(
            total_capacity=64 * 1024,
            nzone_fraction=0.3,
            adaptive=False,
            marker_interval_seconds=1e9,
            seed=4,
        ),
        clock=clock,
    )
    return ItemMetaStore(cache), clock


class TestExpiryIndex:
    def test_untracked_key_never_expired(self):
        store, clock = make_store()
        store.set(b"k", b"v")
        clock.set(1e9)
        assert store.expire([b"k", b"never-stored"]) == 0
        assert store.cache.get(b"k") == b"v"
        assert not store.due

    def test_deadline_respected(self):
        store, clock = make_store()
        store.set(b"k", b"v", ttl=10.0)
        clock.set(9.9)
        assert store.expire([b"k"]) == 0
        assert b"k" in store.entries
        clock.set(10.0)
        assert store.expire([b"k"]) == 1
        assert b"k" not in store.entries

    def test_none_clears(self):
        store, clock = make_store()
        store.set(b"k", b"v", ttl=10.0)
        store.set(b"k", b"v")
        assert store.entries[b"k"][2] is None
        clock.set(100.0)
        assert store.expire([b"k"]) == 0
        assert store.cache.get(b"k") == b"v"

    def test_overwrite_moves_deadline(self):
        store, clock = make_store()
        store.set(b"k", b"v", ttl=10.0)
        store.set(b"k", b"v", ttl=50.0)
        clock.set(20.0)
        assert store.expire([b"k"]) == 0
        clock.set(50.0)
        assert store.expire([b"k"]) == 1

    def test_pop_due_yields_expired_only(self):
        store, clock = make_store()
        store.set(b"a", b"v", ttl=5.0)
        store.set(b"b", b"v", ttl=15.0)
        clock.set(10.0)
        assert store.expire() == 1
        assert b"a" not in store.entries and b"b" in store.entries
        assert len(store.due) == 1

    def test_pop_due_skips_stale_heap_entries(self):
        store, clock = make_store()
        store.set(b"k", b"v", ttl=5.0)
        store.set(b"k", b"v", ttl=50.0)  # first heap slot now stale
        clock.set(10.0)
        assert store.expire() == 0
        assert store.cache.get(b"k") == b"v"
        clock.set(60.0)
        assert store.expire() == 1

    def test_pop_due_limit(self):
        store, clock = make_store()
        for i in range(PURGE_LIMIT + 6):
            store.set(b"due%03d" % i, b"v", ttl=1.0)
        store.set(b"zz-read", b"v", ttl=1.0)  # sorts last on the heap
        clock.set(2.0)
        # The purge stops at the limit; a read key is checked past it.
        assert store.expire([b"zz-read"]) == PURGE_LIMIT + 1
        assert b"zz-read" not in store.entries
        assert store.expire() == 6
        assert not store.entries and not store.due

    def test_memory_model_grows(self):
        store, _clock = make_store()
        empty = store.memory_bytes
        store.set(b"plain", b"v")
        untimed = store.memory_bytes
        store.set(b"timed", b"v", ttl=1.0)
        assert empty < untimed
        assert store.memory_bytes - untimed > untimed - empty  # + heap slot

    def test_stale_heap_entries_drain_after_churn(self):
        # Every overwrite leaves a stale heap slot behind; after heavy
        # churn the heap must drain back to nothing (and stop being
        # charged) once the due keys are deleted.
        store, clock = make_store()
        for round_ in range(50):
            for i in range(8):
                store.set(b"churn%d" % i, b"v", ttl=10.0 + round_)
        assert len(store.due) == 400
        assert store.memory_bytes > 8 * 104  # stale slots are charged
        clock.advance(1000.0)
        assert store.expire() == 8
        assert not store.due and not store.entries
        assert store.memory_bytes == 0

    def test_tombstoned_keys_drain_without_yielding(self):
        # Keys deleted before their deadline leave heap-only residue; the
        # purge discards it silently, and a key stored again without a
        # TTL is not touched by its old slot.
        store, clock = make_store()
        for i in range(10):
            store.set(b"dead%d" % i, b"v", ttl=5.0)
            store.delete(b"dead%d" % i)
        store.set(b"dead0", b"again")
        assert store.due
        clock.advance(100.0)
        assert store.expire() == 0
        assert not store.due
        assert store.cache.get(b"dead0") == b"again"


class TestZExpanderTTL:
    def test_get_before_expiry(self):
        store, clock = make_store()
        store.set(b"k", b"v", ttl=10.0)
        clock.advance(5.0)
        assert store.expire([b"k"]) == 0
        assert store.cache.get(b"k") == b"v"

    def test_get_after_expiry(self):
        store, clock = make_store()
        store.set(b"k", b"v", ttl=10.0)
        clock.advance(10.5)
        assert store.expire([b"k"]) == 1
        assert store.cache.get(b"k") is None
        # Fully gone, not resurrectable.
        assert store.expire([b"k"]) == 0
        assert store.cache.get(b"k") is None
        assert b"k" not in store.cache

    def test_contains_respects_ttl(self):
        store, clock = make_store()
        store.set(b"k", b"v", ttl=1.0)
        assert [key for key, _v, _f in store.walk()] == [b"k"]
        clock.advance(2.0)
        # Past its deadline the key leaves the walk (and so every image)
        # even before a purge deletes it from the cache.
        assert [key for key, _v, _f in store.walk()] == []
        assert store.expire() == 1
        assert b"k" not in store.cache

    def test_overwrite_without_ttl_clears_it(self):
        store, clock = make_store()
        store.set(b"k", b"v1", ttl=1.0)
        store.set(b"k", b"v2")
        clock.advance(100.0)
        assert store.expire([b"k"]) == 0
        assert store.cache.get(b"k") == b"v2"

    def test_overwrite_extends_ttl(self):
        store, clock = make_store()
        store.set(b"k", b"v1", ttl=1.0)
        store.set(b"k", b"v2", ttl=100.0)
        clock.advance(50.0)
        assert store.expire([b"k"]) == 0
        assert store.cache.get(b"k") == b"v2"

    def test_proactive_purge_via_housekeeping(self):
        store, clock = make_store()
        store.set(b"dead", b"v", ttl=1.0)
        clock.advance(5.0)
        # A command on an unrelated key: the per-command purge deletes
        # the due key even though nothing reads it.
        store.set(b"other", b"x")
        assert store.expire([b"other"]) == 1
        assert b"dead" not in store.cache

    def test_expired_key_in_zzone_removed(self):
        store, clock = make_store()
        store.set(b"cold", b"v", ttl=50.0)
        # Push it into the Z-zone with fresh traffic.
        for i in range(600):
            clock.advance(0.01)
            store.set(b"fill:%04d" % i, b"w" * 64)
        assert store.cache.nzone.get(b"cold") is None
        assert store.cache.zzone.maybe_contains(b"cold")
        clock.advance(100.0)
        assert store.expire([b"cold"]) == 1
        assert store.cache.get(b"cold") is None
        assert not store.cache.zzone.maybe_contains(b"cold")

    def test_invalid_ttl(self):
        store, _clock = make_store()
        with pytest.raises(ValueError):
            store.set(b"k", b"v", ttl=0)
        assert store.cache.get(b"k") is None and not store.entries

    def test_delete_clears_ttl(self):
        store, clock = make_store()
        store.set(b"k", b"v", ttl=10.0)
        store.delete(b"k")
        store.set(b"k", b"v2")
        clock.advance(100.0)
        assert store.expire([b"k"]) == 0
        assert store.cache.get(b"k") == b"v2"

    def test_miss_ratio_counts_expired_gets(self):
        store, clock = make_store()
        store.set(b"k", b"v", ttl=1.0)
        clock.advance(5.0)
        store.expire([b"k"])
        assert store.cache.get(b"k") is None
        assert store.cache.stats.get_misses == 1
