"""Tests for the ZExpander cache's glue policies."""

import pytest

from repro.common.clock import VirtualClock
from repro.core import SimpleKVCache, ZExpander, ZExpanderConfig
from repro.core.marker import is_marker_key
from tests.nzone.plain import PlainZone


def make_cache(
    total=64 * 1024,
    nzone_fraction=0.3,
    adaptive=False,
    clock=None,
    **overrides,
):
    config = ZExpanderConfig(
        total_capacity=total,
        nzone_fraction=nzone_fraction,
        nzone_factory=lambda capacity: PlainZone(capacity),
        adaptive=adaptive,
        marker_interval_seconds=overrides.pop("marker_interval_seconds", 1e9),
        seed=1,
    )
    for name, value in overrides.items():
        setattr(config, name, value)
    return ZExpander(config, clock=clock or VirtualClock())


class TestRouting:
    def test_set_then_get_hits_nzone(self):
        cache = make_cache()
        cache.set(b"key", b"value")
        assert cache.get(b"key") == b"value"
        assert cache.stats.get_hits_nzone == 1
        assert cache.stats.get_hits_zzone == 0

    def test_miss(self):
        cache = make_cache()
        assert cache.get(b"missing") is None
        assert cache.stats.get_misses == 1

    def test_eviction_demotes_to_zzone(self):
        cache = make_cache(total=32 * 1024, nzone_fraction=0.1)
        for i in range(60):
            cache.set(b"key%03d" % i, b"v" * 64)
        assert cache.stats.demotions > 0
        # Early keys left the N-zone but remain readable via the Z-zone.
        hits = sum(1 for i in range(60) if cache.get(b"key%03d" % i) is not None)
        assert hits > 40

    def test_get_falls_through_to_zzone(self):
        cache = make_cache(total=32 * 1024, nzone_fraction=0.1)
        for i in range(60):
            cache.set(b"key%03d" % i, b"v" * 64)
        baseline = cache.stats.get_hits_zzone
        for i in range(60):
            cache.get(b"key%03d" % i)
        assert cache.stats.get_hits_zzone > baseline

    def test_delete_reaches_both_zones(self):
        cache = make_cache(total=32 * 1024, nzone_fraction=0.1)
        for i in range(60):
            cache.set(b"key%03d" % i, b"v" * 64)
        removed = sum(1 for i in range(60) if cache.delete(b"key%03d" % i))
        assert removed > 40
        for i in range(60):
            assert cache.get(b"key%03d" % i) is None

    def test_contains(self):
        cache = make_cache()
        cache.set(b"key", b"value")
        assert b"key" in cache
        assert b"nope" not in cache

    def test_item_count_and_bytes(self):
        cache = make_cache()
        cache.set(b"key", b"value")
        assert cache.item_count == 1
        assert cache.used_bytes > 0
        assert cache.capacity == 64 * 1024


class TestMarkers:
    def test_markers_issued_and_sampled(self):
        clock = VirtualClock()
        cache = make_cache(
            total=16 * 1024,
            nzone_fraction=0.1,
            clock=clock,
            marker_interval_seconds=0.5,
        )
        for i in range(300):
            clock.advance(0.05)
            cache.set(b"key%04d" % i, b"v" * 64)
        assert cache.stats.marker_sets > 3
        assert cache.stats.marker_samples > 0
        assert cache.benchmark.value is not None

    def test_markers_never_enter_zzone(self):
        clock = VirtualClock()
        cache = make_cache(
            total=16 * 1024,
            nzone_fraction=0.1,
            clock=clock,
            marker_interval_seconds=0.2,
        )
        for i in range(300):
            clock.advance(0.05)
            cache.set(b"key%04d" % i, b"v" * 64)
        assert cache.zzone.item_count > 0
        for key, _value in cache.zzone.items():
            assert not is_marker_key(key)


class TestPromotion:
    def _cache_with_z_item(self, policy="reuse-time"):
        clock = VirtualClock()
        cache = make_cache(
            total=32 * 1024,
            nzone_fraction=0.1,
            clock=clock,
            promotion_policy=policy,
        )
        for i in range(80):
            clock.advance(0.01)
            cache.set(b"key%03d" % i, b"v" * 64)
        # key000 has long since been demoted to the Z-zone.
        assert cache.nzone.get(b"key000") is None
        return cache, clock

    def test_second_access_promotes_when_no_benchmark(self):
        cache, clock = self._cache_with_z_item()
        cache.get(b"key000")  # first Z access: recorded only
        assert cache.stats.promotions == 0
        clock.advance(0.001)
        cache.get(b"key000")  # fast re-use: promoted
        assert cache.stats.promotions == 1
        assert cache.nzone.get(b"key000") is not None

    def test_slow_reuse_declined_with_benchmark(self):
        cache, clock = self._cache_with_z_item()
        # Install a benchmark of ~0.1 s via a synthetic marker cycle.
        marker = cache.benchmark.mint(clock.now())
        clock.advance(0.1)
        cache.benchmark.observe_eviction(marker, clock.now())
        cache.get(b"key000")
        clock.advance(5.0)  # re-use time far above the benchmark
        cache.get(b"key000")
        assert cache.stats.promotions == 0
        assert cache.stats.promotions_declined == 1

    def test_policy_always(self):
        cache, clock = self._cache_with_z_item(policy="always")
        cache.get(b"key000")
        assert cache.stats.promotions == 1

    def test_policy_never(self):
        cache, clock = self._cache_with_z_item(policy="never")
        cache.get(b"key000")
        clock.advance(0.001)
        cache.get(b"key000")
        assert cache.stats.promotions == 0


class TestDeferredRemoval:
    def test_set_schedules_removal_of_stale_z_version(self):
        cache, clock = TestPromotion()._cache_with_z_item()
        assert cache.zzone.maybe_contains(b"key000")
        cache.set(b"key000", b"new-version")
        assert cache.stats.postponed_removals >= 1
        # The fresh value must win regardless of where it is read from.
        assert cache.get(b"key000") == b"new-version"

    def test_reads_never_see_stale_version_after_set(self):
        cache, clock = TestPromotion()._cache_with_z_item()
        cache.set(b"key000", b"new-version")
        # Force the N-zone copy out by inserting more traffic.
        for i in range(200, 260):
            clock.advance(0.01)
            cache.set(b"key%03d" % i, b"v" * 64)
        value = cache.get(b"key000")
        assert value in (None, b"new-version")


class TestAdaptation:
    def test_targets_applied_to_zones(self):
        clock = VirtualClock()
        cache = make_cache(
            total=64 * 1024,
            nzone_fraction=0.3,
            adaptive=True,
            clock=clock,
            window_seconds=0.5,
        )
        # All traffic misses in N and is served/filled at Z: fraction at
        # the N-zone stays low, so the N-zone must grow.
        initial = cache.nzone.capacity
        for i in range(3000):
            clock.advance(0.01)
            cache.set(b"key%05d" % (i % 600), b"v" * 64)
            cache.get(b"key%05d" % ((i * 7) % 600))
        assert cache.stats.allocation_adjustments > 0
        assert cache.nzone.capacity != initial
        assert cache.nzone.capacity + cache.zzone.capacity == 64 * 1024
        cache.check_invariants()


class TestSimpleKVCache:
    def test_baseline_interface(self):
        cache = SimpleKVCache(PlainZone(1024))
        cache.set(b"key", b"value")
        assert cache.get(b"key") == b"value"
        assert cache.get(b"other") is None
        assert b"key" in cache
        assert cache.delete(b"key") is True
        assert cache.stats.gets == 2
        assert cache.stats.get_misses == 1
        assert cache.item_count == 0
