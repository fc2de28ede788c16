"""Tests for the trace-replay driver and its accounting rules."""

import pytest

from repro.replacement import LRUCache, simulate_trace
from repro.replacement import driver
from repro.replacement.driver import MissStats
from repro.workloads.trace import OP_DELETE, OP_GET, OP_SET, TraceBuilder


def trace_of(entries, num_keys=100):
    builder = TraceBuilder("t", num_keys=num_keys)
    for op, key, size in entries:
        builder.add(op, key, size)
    return builder.build()


class TestMissStats:
    def test_sets_count_as_hits(self):
        stats = MissStats(gets=50, get_misses=10, sets=50)
        assert stats.miss_ratio == pytest.approx(0.1)

    def test_empty(self):
        assert MissStats().miss_ratio == 0.0


class TestSimulateTrace:
    @pytest.fixture(autouse=True)
    def measure_everything(self, monkeypatch):
        monkeypatch.setattr(driver, "WARMUP_FRACTION", 0.0)

    def test_demand_fill_on_get_miss(self):
        trace = trace_of([(OP_GET, 1, 50), (OP_GET, 1, 50)])
        cache = LRUCache(1000)
        stats = simulate_trace(cache, trace)
        assert stats.gets == 2
        assert stats.get_misses == 1  # the second GET hits the fill

    def test_warmup_not_measured(self, monkeypatch):
        monkeypatch.setattr(driver, "WARMUP_FRACTION", 0.5)
        trace = trace_of([(OP_GET, 1, 50)] * 10)
        stats = simulate_trace(LRUCache(1000), trace)
        assert stats.gets == 5
        assert stats.get_misses == 0  # the miss happened during warmup

    def test_delete_removes(self):
        trace = trace_of(
            [(OP_SET, 1, 50), (OP_DELETE, 1, 0), (OP_GET, 1, 50)]
        )
        stats = simulate_trace(LRUCache(1000), trace)
        assert stats.get_misses == 1
        assert stats.deletes == 1

    def test_set_always_hit_in_ratio(self):
        trace = trace_of([(OP_SET, k, 50) for k in range(10)])
        stats = simulate_trace(LRUCache(10_000), trace)
        assert stats.miss_ratio == 0.0
        assert stats.sets == 10
