"""Fault-plan wiring through config -> ZExpander -> ZZone -> replay."""

from repro.common.clock import VirtualClock
from repro.core.config import ZExpanderConfig
from repro.core.sharded import ShardedZExpander
from repro.core.zexpander import ZExpander
from repro.faults import FaultPlan, FaultSpec, FaultyCompressor
from repro.metrics import MetricsRegistry


def _config(**overrides):
    defaults = dict(total_capacity=2 << 20, seed=1)
    defaults.update(overrides)
    return ZExpanderConfig(**defaults)


class TestZExpanderWiring:
    def test_no_plan_means_no_injector(self):
        cache = ZExpander(_config(), clock=VirtualClock())
        assert cache.fault_injector is None
        assert not isinstance(cache.zzone.compressor, FaultyCompressor)

    def test_plan_arms_injector_and_wraps_codec(self):
        plan = FaultPlan(seed=2, specs=(FaultSpec(site="block.bitflip", rate=0.5),))
        cache = ZExpander(_config(fault_plan=plan), clock=VirtualClock())
        assert cache.fault_injector is not None
        assert cache.fault_injector.plan is plan
        assert isinstance(cache.zzone.compressor, FaultyCompressor)
        assert cache.zzone._faults is cache.fault_injector

    def test_corruption_detected_through_cache_api(self):
        plan = FaultPlan(seed=3, specs=(FaultSpec(site="block.bitflip", rate=1.0),))
        cache = ZExpander(
            _config(
                fault_plan=plan,
                total_capacity=192 * 1024,
                nzone_fraction=0.1,
                adaptive=False,
            ),
            clock=VirtualClock(),
        )
        # Small values land in the N-zone first; spill many so the Z-zone
        # fills, then read everything back through the public API.
        for i in range(300):
            cache.set(b"k%04d" % i, b"v" * 120)
        for i in range(300):
            value = cache.get(b"k%04d" % i)
            assert value is None or value == b"v" * 120
        # At the default config a flipped bit lands on a block's compressed
        # payload or on its raw staged bytes; each has its own CRC and
        # both must fire.
        assert cache.zzone.append_region_bytes > 0
        assert cache.zzone.stats.checksum_failures > 0
        assert cache.zzone.stats.staged_checksum_failures > 0
        assert cache.zzone.stats.quarantined_blocks > 0
        cache.check_invariants()


class TestShardedAggregation:
    def test_integrity_counters_sum_over_shards(self):
        sharded = ShardedZExpander(_config(), num_shards=3, clock=VirtualClock())
        for shard in sharded.shards:
            shard.zzone.stats.checksum_failures += 2
            shard.zzone.stats.quarantined_blocks += 1
        registry = MetricsRegistry()
        sharded.bind_metrics(registry)
        totals = registry.snapshot()
        assert totals["cache_zzone_checksum_failures"] == 6
        assert totals["cache_zzone_quarantined_blocks"] == 3
        assert totals["cache_zzone_codec_fallbacks"] == 0

    def test_fault_plan_propagates_to_every_shard(self):
        plan = FaultPlan(seed=5, specs=(FaultSpec(site="block.bitflip", rate=0.1),))
        sharded = ShardedZExpander(
            _config(fault_plan=plan), num_shards=2, clock=VirtualClock()
        )
        for shard in sharded.shards:
            assert shard.fault_injector is not None
