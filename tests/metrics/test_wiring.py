"""The observability layer wired through cache, replay, and auditor."""

from repro.common.clock import VirtualClock
from repro.core.config import ZExpanderConfig
from repro.core.replay import replay_trace
from repro.core.sharded import ShardedZExpander
from repro.core.zexpander import ZExpander
from repro.experiments.common import Scale, build_trace, build_value_source
from repro.faults.auditor import InvariantAuditor
from repro.metrics import MetricsRegistry
from tests.metrics.exposition import to_prometheus

SCALE = Scale(num_keys=400, num_requests=6_000, seed=3)


def run_small_replay(cache, clock, registry=None, **kwargs):
    trace = build_trace("ETC", SCALE)
    values = build_value_source("ETC", trace, seed=SCALE.seed)
    return replay_trace(
        cache,
        trace,
        values,
        clock=clock,
        request_rate=50_000.0,
        registry=registry,
        **kwargs,
    )


class TestCacheBinding:
    def test_zexpander_counters_visible_in_snapshot(self):
        clock = VirtualClock()
        cache = ZExpander(
            ZExpanderConfig(total_capacity=64 * 1024, seed=1), clock=clock
        )
        registry = MetricsRegistry()
        cache.bind_metrics(registry)
        cache.set(b"k", b"v" * 50)
        cache.get(b"k")
        cache.get(b"absent")
        snap = registry.snapshot()
        assert snap["cache_gets"] == 2
        assert snap["cache_get_hits_nzone"] == 1
        assert snap["cache_get_misses"] == 1
        assert snap["cache_sets"] == 1
        assert snap["cache_used_bytes"] == cache.used_bytes
        assert snap["cache_zzone_sweep_visits"] >= 0
        assert snap["cache_nzone_capacity_bytes"] == cache.nzone.capacity

    def test_adaptive_views_present_when_enabled(self):
        cache = ZExpander(
            ZExpanderConfig(total_capacity=64 * 1024, seed=1, adaptive=True)
        )
        registry = MetricsRegistry()
        cache.bind_metrics(registry)
        snap = registry.snapshot()
        assert snap["cache_nzone_target_bytes"] == cache.allocator.nzone_target
        assert snap["cache_allocation_adjustments"] == 0

    def test_sharded_binding_sums_over_shards(self):
        cache = ShardedZExpander(
            ZExpanderConfig(total_capacity=256 * 1024, seed=2), num_shards=4
        )
        registry = MetricsRegistry()
        cache.bind_metrics(registry)
        for index in range(40):
            cache.set(b"key:%d" % index, b"x" * 30)
            cache.get(b"key:%d" % index)
        for shard in cache.shards:
            shard.zzone.stats.checksum_failures += 3
        snap = registry.snapshot()
        assert snap["cache_gets"] == 40 == sum(s.stats.gets for s in cache.shards)
        assert snap["cache_sets"] == 40 == sum(s.stats.sets for s in cache.shards)
        assert snap["cache_shards"] == 4
        assert snap["cache_item_count"] == cache.item_count
        assert snap["cache_zzone_checksum_failures"] == 12

    def test_binding_adds_no_request_path_work(self):
        # The registry reads lazily: mutating stats after binding is the
        # same plain attribute increment, and two caches (bound/unbound)
        # behave byte-identically.
        clock_a, clock_b = VirtualClock(), VirtualClock()
        bound = ZExpander(
            ZExpanderConfig(total_capacity=48 * 1024, seed=9), clock=clock_a
        )
        unbound = ZExpander(
            ZExpanderConfig(total_capacity=48 * 1024, seed=9), clock=clock_b
        )
        bound.bind_metrics(MetricsRegistry())
        stats_bound = run_small_replay(bound, clock_a)
        stats_unbound = run_small_replay(unbound, clock_b)
        assert vars(stats_bound) == vars(stats_unbound)
        assert vars(bound.stats) == vars(unbound.stats)


class TestReplayMetrics:
    def test_registry_does_not_change_replay_results(self):
        clock_a, clock_b = VirtualClock(), VirtualClock()
        cache_a = ZExpander(
            ZExpanderConfig(total_capacity=48 * 1024, seed=5), clock=clock_a
        )
        cache_b = ZExpander(
            ZExpanderConfig(total_capacity=48 * 1024, seed=5), clock=clock_b
        )
        plain = run_small_replay(cache_a, clock_a)
        registry = MetricsRegistry()
        metered = run_small_replay(cache_b, clock_b, registry=registry)
        assert vars(plain) == vars(metered)
        assert vars(cache_a.stats) == vars(cache_b.stats)

    def test_phase_timings_and_latency_recorded(self):
        clock = VirtualClock()
        cache = ZExpander(
            ZExpanderConfig(total_capacity=48 * 1024, seed=5), clock=clock
        )
        registry = MetricsRegistry()
        stats = run_small_replay(cache, clock, registry=registry)
        snap = registry.snapshot()
        assert snap["replay_warmup_seconds"] > 0.0
        assert snap["replay_measured_seconds"] > 0.0
        latency = snap["replay_request_seconds"]
        assert latency["count"] > 0
        assert latency["count"] <= stats.requests
        # Mounted final tallies match the returned stats.
        assert snap["replay_gets"] == stats.gets
        assert snap["replay_get_misses"] == stats.get_misses

    def test_metrics_recorded_with_on_request_hook(self):
        clock = VirtualClock()
        cache = ZExpander(
            ZExpanderConfig(total_capacity=48 * 1024, seed=5), clock=clock
        )
        registry = MetricsRegistry()
        seen = []
        stats = run_small_replay(
            cache,
            clock,
            registry=registry,
            on_request=lambda position, op: seen.append(position),
        )
        snap = registry.snapshot()
        assert len(seen) == SCALE.num_requests
        assert snap["replay_request_seconds"]["count"] > 0
        assert snap["replay_measured_seconds"] > 0.0
        assert snap["replay_gets"] == stats.gets

    def test_timing_excluded_snapshot_is_deterministic(self):
        def golden():
            clock = VirtualClock()
            cache = ZExpander(
                ZExpanderConfig(total_capacity=48 * 1024, seed=5), clock=clock
            )
            registry = MetricsRegistry()
            cache.bind_metrics(registry)
            run_small_replay(cache, clock, registry=registry)
            return to_prometheus(registry, include_timing=False)

        first, second = golden(), golden()
        assert first == second
        assert "replay_request_seconds" not in first  # timing excluded


class TestAuditorMetrics:
    def test_audits_counted_in_registry(self):
        cache = ZExpander(ZExpanderConfig(total_capacity=32 * 1024, seed=1))
        registry = MetricsRegistry()
        auditor = InvariantAuditor(cache, interval=2, registry=registry)
        for position in range(6):
            auditor.on_request(position)
        assert auditor.audits == 3
        assert registry.snapshot()["auditor_audits_total"] == 3
        assert registry.snapshot()["auditor_invariant_failures_total"] == 0

    def test_failure_counted_and_reraised(self):
        class BrokenCache:
            def check_invariants(self):
                raise AssertionError("corrupt")

        registry = MetricsRegistry()
        auditor = InvariantAuditor(BrokenCache(), interval=1, registry=registry)
        try:
            auditor.on_request(0)
        except AssertionError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected the invariant failure to surface")
        assert registry.snapshot()["auditor_invariant_failures_total"] == 1
        assert auditor.audits == 0

    def test_registryless_auditor_still_works(self):
        cache = ZExpander(ZExpanderConfig(total_capacity=32 * 1024, seed=1))
        auditor = InvariantAuditor(cache, interval=1)
        auditor.on_request(0)
        assert auditor.audits == 1
