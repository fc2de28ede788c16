"""Behavioural tests shared by every N-zone implementation."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.nzone import HPCacheZone, MemcachedZone
from tests.nzone.plain import PlainZone

ZONE_FACTORIES = {
    "plain": lambda: PlainZone(64 * 1024),
    "hpcache": lambda: HPCacheZone(64 * 1024, seed=1),
    "memcached": lambda: MemcachedZone(256 * 1024, page_bytes=16 * 1024),
}


@pytest.fixture(params=sorted(ZONE_FACTORIES))
def zone(request):
    return ZONE_FACTORIES[request.param]()


class TestAllZones:
    def test_get_absent(self, zone):
        assert zone.get(b"missing") is None

    def test_set_get(self, zone):
        zone.set(b"key", b"value")
        assert zone.get(b"key") == b"value"
        assert b"key" in zone

    def test_overwrite(self, zone):
        zone.set(b"key", b"v1")
        zone.set(b"key", b"v2")
        assert zone.get(b"key") == b"v2"
        assert zone.item_count == 1

    def test_a_spilled_overwrite_takes_the_older_version_with_it(self, zone):
        """A SET too big for the zone is spilled at once; the version it
        overwrote must not stay behind to be served in its place."""
        zone.set(b"key", b"v1")
        spilled = zone.set(b"key", b"x" * (zone.capacity + 1))
        assert [item.key for item in spilled] == [b"key"]
        assert zone.get(b"key") is None
        assert b"key" not in zone
        zone.check_invariants()

    def test_delete(self, zone):
        zone.set(b"key", b"value")
        assert zone.delete(b"key") is True
        assert zone.delete(b"key") is False
        assert zone.get(b"key") is None
        assert zone.item_count == 0

    def test_eviction_returns_spilled_items(self, zone):
        value = b"v" * 1000
        spilled = []
        for i in range(500):
            spilled.extend(zone.set(b"key%04d" % i, value))
        assert spilled, "cache under pressure must evict"
        # memcached's -m limit governs slab pages only; its hash table is
        # out-of-band (and reported in used_bytes), so allow small slack.
        assert zone.used_bytes <= zone.capacity * 1.1
        for item in spilled:
            assert item.value == value
        zone.check_invariants()

    def test_shrink_spills(self, zone):
        for i in range(30):
            zone.set(b"key%04d" % i, b"v" * 100)
        before = zone.item_count
        spilled = zone.resize(max(zone.used_bytes // 2, 16 * 1024))
        zone.check_invariants()
        assert zone.item_count + len(spilled) == before

    def test_usage_breakdown_has_required_fields(self, zone):
        zone.set(b"key", b"value")
        usage = zone.memory_usage()
        assert set(usage) >= {"items", "metadata", "other"}
        assert usage["items"] >= len(b"key") + len(b"value")

@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["set", "get", "delete"]),
            st.integers(min_value=0, max_value=25),
            st.integers(min_value=1, max_value=200),
        ),
        max_size=120,
    )
)
@settings(max_examples=20, deadline=None)
def test_dict_equivalence_without_pressure(ops):
    """Every zone behaves exactly like a dict while under capacity."""
    for name, factory in ZONE_FACTORIES.items():
        cache = factory()
        model = {}
        for op, key_id, size in ops:
            key = b"k%03d" % key_id
            if op == "set":
                value = bytes([key_id % 251]) * size
                evicted = cache.set(key, value)
                model[key] = value
                for item in evicted:
                    model.pop(item.key, None)
            elif op == "get":
                assert cache.get(key) == model.get(key), name
            else:
                assert cache.delete(key) == (key in model), name
                model.pop(key, None)
        cache.check_invariants()
        assert cache.item_count == len(model), name
