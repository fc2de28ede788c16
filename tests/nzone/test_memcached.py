"""memcached-model-specific tests: slabs, classes, per-class LRU."""

import pytest

from repro.nzone.memcached import (
    DEFAULT_PAGE_BYTES,
    ITEM_HEADER_BYTES,
    MemcachedZone,
    SlabAllocator,
    build_chunk_sizes,
)


class TestChunkSizes:
    def test_geometric_growth(self):
        sizes = build_chunk_sizes(1 << 20)
        for a, b in zip(sizes, sizes[1:]):
            assert b > a
        assert sizes[-1] == 1 << 20

    def test_aligned_to_8(self):
        assert all(size % 8 == 0 for size in build_chunk_sizes(DEFAULT_PAGE_BYTES)[:-1])


class TestSlabAllocator:
    def test_class_for_picks_smallest_fit(self):
        slabs = SlabAllocator(1 << 20, page_bytes=64 * 1024)
        class_id = slabs.class_for(100)
        assert slabs.chunk_sizes[class_id] >= 100
        if class_id > 0:
            assert slabs.chunk_sizes[class_id - 1] < 100

    def test_class_for_oversized(self):
        slabs = SlabAllocator(1 << 20, page_bytes=64 * 1024)
        assert slabs.class_for(1 << 21) is None

    def test_allocation_assigns_pages(self):
        slabs = SlabAllocator(128 * 1024, page_bytes=64 * 1024)
        class_id = slabs.class_for(100)
        assert slabs.allocate(class_id)
        assert slabs.allocated_bytes == 64 * 1024

    def test_memory_limit_blocks_pages(self):
        slabs = SlabAllocator(64 * 1024, page_bytes=64 * 1024)
        class_id = slabs.class_for(100)
        chunk = slabs.chunk_sizes[class_id]
        chunks_per_page = (64 * 1024) // chunk
        for _ in range(chunks_per_page):
            assert slabs.allocate(class_id)
        assert not slabs.allocate(class_id)  # page limit reached

    def test_free_recycles_chunk(self):
        slabs = SlabAllocator(64 * 1024, page_bytes=64 * 1024)
        class_id = slabs.class_for(100)
        slabs.allocate(class_id)
        slabs.free(class_id)
        assert slabs.allocate(class_id)  # reuses the freed chunk

    def test_free_without_used_rejected(self):
        slabs = SlabAllocator(64 * 1024, page_bytes=64 * 1024)
        with pytest.raises(ValueError):
            slabs.free(0)


class TestMemcachedZone:
    def test_eviction_from_same_class(self):
        zone = MemcachedZone(64 * 1024, page_bytes=16 * 1024)
        # Fill with small items (one class), then large items (another):
        # pressure from small-item traffic must evict small items only.
        spilled = []
        for i in range(2000):
            spilled.extend(zone.set(b"s%05d" % i, b"v" * 10))
        assert spilled
        assert all(len(item.value) == 10 for item in spilled)

    def test_per_class_lru_order(self):
        zone = MemcachedZone(32 * 1024, page_bytes=16 * 1024)
        zone.set(b"a", b"v" * 10)
        zone.set(b"b", b"v" * 10)
        zone.get(b"a")  # refresh a
        evicted = []
        i = 0
        while not evicted:
            evicted = zone.set(b"fill%05d" % i, b"v" * 10)
            i += 1
        assert evicted[0].key == b"b"

    def test_calcification(self):
        """Pages never leave a class (1.4.x behaviour)."""
        zone = MemcachedZone(48 * 1024, page_bytes=16 * 1024)
        for i in range(900):
            zone.set(b"small%04d" % i, b"v" * 10)
        # All pages now belong to the small class; a large item cannot get
        # a page and is refused (returned as its own spill).
        result = zone.set(b"big", b"x" * 2000)
        assert any(item.key == b"big" for item in result)

    def test_metadata_accounting(self):
        zone = MemcachedZone(64 * 1024, page_bytes=16 * 1024)
        zone.set(b"key", b"value")
        usage = zone.memory_usage()
        assert usage["metadata"] >= ITEM_HEADER_BYTES
        assert usage["items"] == len(b"key") + len(b"value")
        assert usage["other"] > 0  # free chunks in the assigned page

    def test_usage_components_sum(self):
        zone = MemcachedZone(64 * 1024, page_bytes=16 * 1024)
        for i in range(50):
            zone.set(b"key%03d" % i, b"v" * 50)
        usage = zone.memory_usage()
        assert usage["items"] + usage["metadata"] + usage["other"] == zone.used_bytes

    def test_oversized_item_refused(self):
        zone = MemcachedZone(DEFAULT_PAGE_BYTES, page_bytes=DEFAULT_PAGE_BYTES)
        result = zone.set(b"huge", b"x" * (2 * DEFAULT_PAGE_BYTES))
        assert result and result[0].key == b"huge"
        assert b"huge" not in zone

    def test_resize_shrink(self):
        zone = MemcachedZone(64 * 1024, page_bytes=16 * 1024)
        for i in range(600):
            zone.set(b"k%04d" % i, b"v" * 30)
        zone.resize(32 * 1024)
        assert zone._slabs.allocated_bytes <= 32 * 1024
        zone.check_invariants()

    def test_capacity_below_page_rejected(self):
        with pytest.raises(ValueError):
            MemcachedZone(1024, page_bytes=16 * 1024)
