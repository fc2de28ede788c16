"""Tests for the sharded zExpander extension."""

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import ConfigurationError
from repro.core import ShardedZExpander, ZExpanderConfig
from repro.workloads.values import PlacesValueGenerator


def make_fleet(num_shards=4, total=256 * 1024):
    config = ZExpanderConfig(
        total_capacity=total,
        nzone_fraction=0.3,
        adaptive=False,
        marker_interval_seconds=1e9,
        seed=5,
    )
    return ShardedZExpander(config, num_shards=num_shards, clock=VirtualClock())


class TestShardedZExpander:
    def test_roundtrip(self):
        fleet = make_fleet()
        fleet.set(b"key", b"value")
        assert fleet.get(b"key") == b"value"
        assert b"key" in fleet
        assert fleet.delete(b"key") is True
        assert fleet.get(b"key") is None

    def test_placement_is_stable(self):
        fleet = make_fleet()
        shard = fleet.shard_for(b"some-key")
        assert fleet.shard_for(b"some-key") is shard

    def test_capacity_divided(self):
        fleet = make_fleet(num_shards=4, total=256 * 1024)
        assert fleet.capacity == 4 * (256 * 1024 // 4)
        assert all(s.capacity == 64 * 1024 for s in fleet.shards)

    def test_keys_spread_over_shards(self):
        fleet = make_fleet(num_shards=4)
        generator = PlacesValueGenerator(seed=1)
        for i in range(2000):
            fleet.clock.advance(1e-5)
            fleet.set(b"key:%08d" % i, generator.generate(i))
        counts = [shard.item_count for shard in fleet.shards]
        assert all(count > 0 for count in counts)
        assert fleet.imbalance() < 1.25
        assert fleet.item_count == sum(counts)
        fleet.check_invariants()

    def test_aggregate_stats(self):
        fleet = make_fleet()
        for i in range(100):
            fleet.set(b"key:%04d" % i, b"v" * 50)
        for i in range(100):
            fleet.get(b"key:%04d" % i)
        total = fleet.aggregate_stats()
        assert total.sets == 100
        assert total.gets == 100
        assert total.miss_ratio < 0.05

    def test_shard_miss_ratios_length(self):
        fleet = make_fleet(num_shards=3)
        assert len(fleet.shard_miss_ratios()) == 3

    def test_single_shard_equivalent(self):
        fleet = make_fleet(num_shards=1)
        fleet.set(b"key", b"value")
        assert fleet.shards[0].get(b"key") == b"value"

    def test_invalid_shard_count(self):
        config = ZExpanderConfig(total_capacity=1 << 20)
        with pytest.raises(ConfigurationError):
            ShardedZExpander(config, num_shards=0)

    def test_capacity_too_small(self):
        config = ZExpanderConfig(total_capacity=10)
        with pytest.raises(ConfigurationError):
            ShardedZExpander(config, num_shards=20)


def make_fastpath_fleet(num_shards=4, total=256 * 1024):
    config = ZExpanderConfig(
        total_capacity=total,
        nzone_fraction=0.3,
        adaptive=False,
        marker_interval_seconds=1e9,
        seed=5,
        append_region_bytes=512,
        decompressed_cache_blocks=16,
    )
    return ShardedZExpander(config, num_shards=num_shards, clock=VirtualClock())


class TestFastPathSharding:
    def test_knobs_propagate_to_every_shard(self):
        fleet = make_fastpath_fleet(num_shards=4)
        for shard in fleet.shards:
            assert shard.zzone.append_region_bytes == 512
            assert shard.zzone.decompressed_cache_blocks == 16

    def test_default_fleet_combines_writes_and_keeps_the_cache_dark(self):
        fleet = make_fleet(num_shards=2)
        for shard in fleet.shards:
            assert shard.zzone.append_region_bytes == 256
            assert shard.zzone.decompressed_cache_blocks == 0
        assert all(value == 0 for value in fleet.aggregate_fastpath().values())
        for i in range(2000):
            fleet.clock.advance(1e-5)
            fleet.set(b"key:%08d" % i, b"v" * 60)
        totals = fleet.aggregate_fastpath()
        assert totals["staged_puts"] > 0
        assert totals["container_cache_hits"] == 0
        assert totals["container_cache_misses"] == 0

    def test_aggregate_fastpath_sums_shard_counters(self):
        fleet = make_fastpath_fleet(num_shards=4)
        generator = PlacesValueGenerator(seed=1)
        for i in range(2000):
            fleet.clock.advance(1e-5)
            fleet.set(b"key:%08d" % i, generator.generate(i))
        for i in range(2000):
            fleet.clock.advance(1e-5)
            fleet.get(b"key:%08d" % i)
        totals = fleet.aggregate_fastpath()
        assert set(totals) == {
            "staged_puts",
            "staging_flushes",
            "container_cache_hits",
            "container_cache_misses",
            "container_decodes_saved",
            "container_cache_bytes",
        }
        assert totals["staged_puts"] > 0
        for name in (
            "staged_puts",
            "staging_flushes",
            "container_cache_hits",
            "container_cache_misses",
            "container_decodes_saved",
        ):
            assert totals[name] == sum(
                getattr(shard.zzone.stats, name) for shard in fleet.shards
            )
        assert totals["container_cache_bytes"] == sum(
            shard.zzone.container_cache_bytes() for shard in fleet.shards
        )
        fleet.check_invariants()
