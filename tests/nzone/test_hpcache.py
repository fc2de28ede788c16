"""H-Cache-specific tests (CLOCK + cuckoo)."""

import tracemalloc

from repro.nzone import HPCacheZone


class TestHPCacheClock:
    def test_referenced_item_survives(self):
        # Capacity: three items plus the minimum table (4 buckets x 32 B).
        zone = HPCacheZone(3 * (1 + 100 + 24) + 128 + 10, seed=1)
        zone.set(b"a", b"v" * 100)
        zone.set(b"b", b"v" * 100)
        zone.set(b"c", b"v" * 100)
        zone.get(b"a")  # sets a's reference bit
        evicted = zone.set(b"d", b"v" * 100)
        assert all(item.key != b"a" for item in evicted)
        assert b"a" in zone

    def test_ring_compaction_preserves_contents(self):
        zone = HPCacheZone(1 << 20, seed=1)
        for i in range(200):
            zone.set(b"key%04d" % i, b"v" * 10)
        # Delete most entries to trigger compaction of the CLOCK ring.
        for i in range(0, 200, 2):
            zone.delete(b"key%04d" % i)
        zone.check_invariants()
        for i in range(1, 200, 2):
            assert zone.get(b"key%04d" % i) == b"v" * 10

    def test_heavy_churn_invariants(self):
        zone = HPCacheZone(8 * 1024, seed=2)
        for i in range(3000):
            zone.set(b"key%05d" % (i % 500), b"v" * (i % 90 + 1))
            if i % 7 == 0:
                zone.delete(b"key%05d" % ((i * 3) % 500))
        zone.check_invariants()
        assert zone.used_bytes <= zone.capacity

    def test_metadata_includes_table(self):
        zone = HPCacheZone(1 << 20, seed=1)
        zone.set(b"key", b"value")
        usage = zone.memory_usage()
        assert usage["metadata"] > 0
        assert usage["items"] == len(b"key") + len(b"value")


class TestHostMemory:
    """What a resident item costs the process beyond its key and value.

    MemC3 charges an item a 1-byte tag and a pointer in its table slot
    plus a CLOCK bit; the ring's parallel arrays come close to that.  The
    list-based layout (a 4-element list per item, a ``(key, tag,
    entry)`` tuple per slot, a list per bucket) cost ~250 B an item.
    """

    def test_host_bytes_per_resident_item(self):
        capacity = 1 << 20
        # Keys and values exist before tracing starts: only what the zone
        # allocates for them is counted.
        items = [
            (b"item:%07d" % i, b"v%d " % i * (8 + i % 40)) for i in range(14000)
        ]
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            zone = HPCacheZone(capacity, seed=3)
            for i, (key, value) in enumerate(items):
                zone.set(key, value)
                if i % 3 == 0:
                    zone.get(items[i // 2][0])
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert zone.used_bytes <= capacity < sum(
            len(key) + len(value) for key, value in items
        )
        per_item = grown / zone.item_count
        assert per_item <= 100, per_item
