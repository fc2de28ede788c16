"""The one replay loop: a golden pin of what it drives, and its edge cases.

``TestGoldenReplay`` pins the counters a seeded ETC replay leaves on the
replay, the cache and the Z-zone.  The values were taken from the replay
that kept a per-entry reference loop beside an array-driven one (which
agreed), so a change to the request sequence the cache sees fails here.
The edge cases run with and without instrumentation (a metrics registry
and an ``on_request`` hook), the loop's only optional branches.
"""

import pytest

from repro.common.clock import VirtualClock
from repro.core import SimpleKVCache, ZExpander, ZExpanderConfig, replay_trace
from repro.experiments.common import Scale, build_trace
from repro.metrics import MetricsRegistry
from tests.nzone.plain import PlainZone
from repro.workloads.trace import OP_DELETE, OP_GET, OP_SET, TraceBuilder
from repro.workloads.values import PlacesValueGenerator, ValueSource


def trace_of(entries, num_keys=50):
    builder = TraceBuilder("t", num_keys=num_keys)
    for op, key, size in entries:
        builder.add(op, key, size)
    return builder.build()


def mixed_trace():
    entries = []
    for index in range(300):
        entries.append((OP_GET, index % 17, 0))
        if index % 3 == 0:
            entries.append((OP_SET, index % 11, 0))
        if index % 29 == 0:
            entries.append((OP_DELETE, index % 7, 0))
    return trace_of(entries)


@pytest.fixture
def values():
    return ValueSource(PlacesValueGenerator(seed=1))


def replay(cache, trace, values, instrumented, **kwargs):
    """Replay, with a registry and an ``on_request`` hook if asked."""
    if instrumented:
        kwargs["registry"] = MetricsRegistry()
        kwargs["on_request"] = lambda position, op: None
    return replay_trace(cache, trace, values, **kwargs)


# The seeded ETC replay's ReplayStats are the same at both capacities:
# every miss is a cold miss.
GOLDEN_REPLAY = dict(
    gets=2208, get_misses=67, sets=178, deletes=14, demand_fills=67
)

GOLDEN_CACHE = {
    # Everything fits the N-zone: the Z-zone sees only the cold misses.
    64 * 1024: dict(
        gets=2746, get_hits_nzone=2615, get_hits_zzone=0, get_misses=131,
        sets=366, deletes=19, promotions=0, promotions_declined=0,
        demotions=0, postponed_removals=0, marker_sets=5, marker_samples=0,
        serviced_nzone=3000, serviced_zzone=0, allocation_adjustments=0,
        get_many_batches=0, batched_keys=0,
    ),
    # Demotions, Z-zone hits, promotions and postponed removals.
    16 * 1024: dict(
        gets=2746, get_hits_nzone=2537, get_hits_zzone=78, get_misses=131,
        sets=366, deletes=19, promotions=9, promotions_declined=2,
        demotions=91, postponed_removals=15, marker_sets=5, marker_samples=5,
        serviced_nzone=2921, serviced_zzone=170, allocation_adjustments=0,
        get_many_batches=0, batched_keys=0,
    ),
}

_ZZONE_ZERO = dict(
    evicted_items=0, evicted_bytes=0, sweep_visits=0,
    pending_removals_executed=0, checksum_failures=0, codec_failures=0,
    codec_fallbacks=0, quarantined_blocks=0, quarantined_items=0,
    quarantined_bytes=0, emergency_sweeps=0, container_cache_hits=0,
    staged_checksum_failures=0, container_decodes_saved=0,
)

GOLDEN_ZZONE = {
    64 * 1024: dict(
        gets=131, hits=0, misses=131, filter_skips=150, false_positives=0,
        decompressions=0, compressions=1, puts=0, deletes=19, splits=0,
        pending_removals_merged=0, staged_puts=0, staging_flushes=0,
        **_ZZONE_ZERO,
    ),
    16 * 1024: dict(
        gets=209, hits=78, misses=131, filter_skips=149, false_positives=0,
        decompressions=122, compressions=52, puts=91, deletes=19, splits=7,
        pending_removals_merged=11, staged_puts=48, staging_flushes=43,
        **_ZZONE_ZERO,
    ),
}

GOLDEN_RESIDENT = {64 * 1024: (23722, 127), 16 * 1024: (16163, 125)}


class TestGoldenReplay:
    @pytest.mark.parametrize(
        "capacity", [64 * 1024, 16 * 1024], ids=["64KiB", "16KiB"]
    )
    def test_etc_zexpander_counters(self, values, capacity):
        trace = build_trace("ETC", Scale(num_keys=200, num_requests=3000, seed=7))
        clock = VirtualClock()
        cache = ZExpander(
            ZExpanderConfig(
                total_capacity=capacity,
                nzone_fraction=0.5,
                marker_interval_seconds=0.01,
                seed=3,
            ),
            clock=clock,
        )
        stats = replay_trace(
            cache, trace, values, clock=clock, request_rate=50_000.0
        )
        assert vars(stats) == GOLDEN_REPLAY
        assert vars(cache.stats) == GOLDEN_CACHE[capacity]
        assert vars(cache.zzone.stats) == GOLDEN_ZZONE[capacity]
        assert (cache.used_bytes, cache.item_count) == GOLDEN_RESIDENT[capacity]


class TestEdgeCases:
    @pytest.mark.parametrize("instrumented", [True, False])
    def test_empty_trace(self, values, instrumented):
        trace = trace_of([])
        stats = replay(SimpleKVCache(PlainZone(4096)), trace, values, instrumented)
        assert stats.requests == 0
        assert stats.miss_ratio == 0.0

    @pytest.mark.parametrize("instrumented", [True, False])
    def test_full_warmup_counts_nothing(self, values, instrumented):
        trace = mixed_trace()
        cache = SimpleKVCache(PlainZone(1 << 14))
        stats = replay(cache, trace, values, instrumented, warmup_fraction=1.0)
        assert stats.requests == 0
        # The cache was still driven through the whole trace.
        assert cache.item_count > 0

    @pytest.mark.parametrize("instrumented", [True, False])
    def test_zero_warmup_counts_everything(self, values, instrumented):
        trace = mixed_trace()
        stats = replay(
            SimpleKVCache(PlainZone(1 << 14)),
            trace,
            values,
            instrumented,
            warmup_fraction=0.0,
        )
        assert stats.requests == len(trace)

    @pytest.mark.parametrize("instrumented", [True, False])
    def test_clock_advances_once_per_request(self, values, instrumented):
        trace = trace_of([(OP_SET, 1, 0)] * 100)
        clock = VirtualClock()
        replay(
            SimpleKVCache(PlainZone(1 << 16)),
            trace,
            values,
            instrumented,
            clock=clock,
            request_rate=1000.0,
        )
        assert clock.now() == pytest.approx(0.1)
