"""Tests for the data-plane replay driver."""

import pytest

from repro.common.clock import VirtualClock
from repro.core import SimpleKVCache, replay_trace
from tests.nzone.plain import PlainZone
from repro.workloads.trace import OP_DELETE, OP_GET, OP_SET, TraceBuilder
from repro.workloads.values import PlacesValueGenerator, ValueSource


def trace_of(entries, num_keys=50):
    builder = TraceBuilder("t", num_keys=num_keys)
    for op, key, size in entries:
        builder.add(op, key, size)
    return builder.build()


@pytest.fixture
def values():
    return ValueSource(PlacesValueGenerator(seed=1))


class TestReplay:
    def test_demand_fill(self, values):
        trace = trace_of([(OP_GET, 1, 0), (OP_GET, 1, 0)])
        cache = SimpleKVCache(PlainZone(4096))
        stats = replay_trace(cache, trace, values, warmup_fraction=0.0)
        assert stats.get_misses == 1
        assert stats.demand_fills == 1
        assert stats.gets == 2

    def test_no_demand_fill(self, values):
        trace = trace_of([(OP_GET, 1, 0), (OP_GET, 1, 0)])
        cache = SimpleKVCache(PlainZone(4096))
        stats = replay_trace(
            cache, trace, values, warmup_fraction=0.0, demand_fill=False
        )
        assert stats.get_misses == 2
        assert stats.demand_fills == 0

    def test_warmup_excluded(self, values):
        trace = trace_of([(OP_GET, k, 0) for k in range(10)])
        cache = SimpleKVCache(PlainZone(1 << 16))
        stats = replay_trace(cache, trace, values, warmup_fraction=0.5)
        assert stats.requests == 5

    def test_clock_advances_at_rate(self, values):
        trace = trace_of([(OP_SET, 1, 0)] * 100)
        clock = VirtualClock()
        cache = SimpleKVCache(PlainZone(1 << 16))
        replay_trace(cache, trace, values, clock=clock, request_rate=1000.0)
        assert clock.now() == pytest.approx(0.1)

    def test_deletes_replayed(self, values):
        trace = trace_of([(OP_SET, 1, 0), (OP_DELETE, 1, 0), (OP_GET, 1, 0)])
        cache = SimpleKVCache(PlainZone(1 << 16))
        stats = replay_trace(cache, trace, values, warmup_fraction=0.0)
        assert stats.deletes == 1
        assert stats.get_misses == 1

    def test_on_request_callback(self, values):
        trace = trace_of([(OP_SET, 1, 0), (OP_GET, 1, 0)])
        seen = []
        cache = SimpleKVCache(PlainZone(1 << 16))
        replay_trace(
            cache,
            trace,
            values,
            on_request=lambda position, op: seen.append((position, op)),
        )
        assert seen == [(0, OP_SET), (1, OP_GET)]

    def test_fault_injector_fires_before_each_request(self, values):
        """A cache's ``fault_injector`` acts before the request, and
        ``on_request`` after it, across the warmup/measured boundary."""
        trace = trace_of([(OP_SET, 1, 0), (OP_GET, 1, 0), (OP_DELETE, 1, 0)])
        clock = VirtualClock()
        cache = SimpleKVCache(PlainZone(1 << 16))
        events = []

        class Injector:
            def on_request(self, position, clock=None, cache=None):
                events.append(("fault", position, clock.now(), cache.item_count))

        cache.fault_injector = Injector()
        replay_trace(
            cache,
            trace,
            values,
            clock=clock,
            request_rate=1000.0,
            warmup_fraction=0.5,
            on_request=lambda position, op: events.append(("request", position, op)),
        )
        assert events == [
            ("fault", 0, pytest.approx(0.001), 0),
            ("request", 0, OP_SET),
            ("fault", 1, pytest.approx(0.002), 1),
            ("request", 1, OP_GET),
            ("fault", 2, pytest.approx(0.003), 1),
            ("request", 2, OP_DELETE),
        ]

    def test_invalid_rate(self, values):
        trace = trace_of([(OP_GET, 1, 0)])
        with pytest.raises(ValueError):
            replay_trace(
                SimpleKVCache(PlainZone(1024)), trace, values, request_rate=0
            )

    def test_miss_ratio_counts_sets_as_hits(self, values):
        trace = trace_of([(OP_SET, 1, 0), (OP_GET, 2, 0)])
        cache = SimpleKVCache(PlainZone(1 << 16))
        stats = replay_trace(cache, trace, values, warmup_fraction=0.0)
        assert stats.miss_ratio == pytest.approx(0.5)
