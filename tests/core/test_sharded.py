"""Tests for the sharded zExpander extension."""

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import ConfigurationError
from repro.core import ShardedZExpander, ZExpander, ZExpanderConfig
from repro.metrics import MetricsRegistry
from repro.workloads.values import PlacesValueGenerator
from repro.zzone.zzone import FASTPATH_FIELDS


def make_fleet(num_shards=4, total=256 * 1024):
    config = ZExpanderConfig(
        total_capacity=total,
        nzone_fraction=0.3,
        adaptive=False,
        marker_interval_seconds=1e9,
        seed=5,
    )
    return ShardedZExpander(config, num_shards=num_shards, clock=VirtualClock())


def fleet_totals(fleet):
    """What the fleet reports about itself: its bound registry's values."""
    registry = MetricsRegistry()
    fleet.bind_metrics(registry)
    return registry.snapshot()


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

    def test_fleet_totals_of_request_counters(self):
        fleet = make_fleet()
        for i in range(100):
            fleet.set(b"key:%04d" % i, b"v" * 50)
        for i in range(100):
            fleet.get(b"key:%04d" % i)
        totals = fleet_totals(fleet)
        assert totals["cache_sets"] == 100
        assert totals["cache_gets"] == 100
        assert totals["cache_get_misses"] < 10

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
    )
    return ShardedZExpander(config, num_shards=num_shards, clock=VirtualClock())


class TestFastPathSharding:
    def test_knobs_propagate_to_every_shard(self):
        fleet = make_fastpath_fleet(num_shards=4)
        for shard in fleet.shards:
            assert shard.zzone.append_region_bytes == 512

    def test_default_fleet_combines_writes_and_keeps_the_cache_dark(self):
        fleet = make_fleet(num_shards=2)
        for shard in fleet.shards:
            assert shard.zzone.append_region_bytes == 256
        fastpath = ["cache_zzone_" + name for name in FASTPATH_FIELDS]
        totals = fleet_totals(fleet)
        assert all(totals[name] == 0 for name in fastpath)
        for i in range(2000):
            fleet.clock.advance(1e-5)
            fleet.set(b"key:%08d" % i, b"v" * 60)
        totals = fleet_totals(fleet)
        assert totals["cache_zzone_staged_puts"] > 0
        assert totals["cache_zzone_container_cache_hits"] == 0

    def test_fleet_fastpath_totals_sum_shard_counters(self):
        fleet = make_fastpath_fleet(num_shards=4)
        generator = PlacesValueGenerator(seed=1)
        for i in range(2000):
            fleet.clock.advance(1e-5)
            fleet.set(b"key:%08d" % i, generator.generate(i))
        for i in range(2000):
            fleet.clock.advance(1e-5)
            fleet.get(b"key:%08d" % i)
        totals = fleet_totals(fleet)
        assert totals["cache_zzone_staged_puts"] > 0
        for name in FASTPATH_FIELDS:
            assert totals["cache_zzone_" + name] == sum(
                getattr(shard.zzone.stats, name) for shard in fleet.shards
            )
        fleet.check_invariants()


class TestOneViewList:
    """A fleet and a single instance report the same additive names."""

    @staticmethod
    def names(cache):
        registry = MetricsRegistry()
        cache.bind_metrics(registry)
        return set(registry.snapshot())

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_one_shard_fleet_has_a_bare_caches_names(self, adaptive):
        config = ZExpanderConfig(total_capacity=64 * 1024, adaptive=adaptive)
        bare = self.names(ZExpander(config))
        fleet = self.names(ShardedZExpander(config, num_shards=1))
        assert fleet - bare == {"cache_shards", "cache_shard_imbalance"}
        # The one value that does not add up across instances.
        assert bare - fleet == {"cache_locality_benchmark_seconds"}
        assert ("cache_nzone_target_bytes" in fleet) == adaptive

    def test_each_fleet_value_is_the_sum_over_its_shards(self):
        fleet = ShardedZExpander(
            ZExpanderConfig(total_capacity=256 * 1024, seed=5), num_shards=4
        )
        generator = PlacesValueGenerator(seed=1)
        for i in range(3000):
            fleet.clock.advance(1e-5)
            fleet.set(b"key:%08d" % i, generator.generate(i))
            fleet.get(b"key:%08d" % (i // 2))
        totals = fleet_totals(fleet)
        per_shard = []
        for shard in fleet.shards:
            registry = MetricsRegistry()
            shard.bind_metrics(registry)
            per_shard.append(registry.snapshot())
        summed = set(totals) - {"cache_shards", "cache_shard_imbalance"}
        assert len(summed) >= 50
        for name in summed:
            assert totals[name] == sum(snap[name] for snap in per_shard), name
        # The paper's control loop, visible for the fleet: the N/Z
        # boundary, and the budget it divides.
        assert totals["cache_demotions"] > 0
        assert (
            totals["cache_nzone_capacity_bytes"]
            + totals["cache_zzone_capacity_bytes"]
            == totals["cache_capacity_bytes"]
            == fleet.capacity
        )
