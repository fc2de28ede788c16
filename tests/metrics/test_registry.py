"""Unit tests for the metrics registry (counters, gauges, histograms)."""

import json

import pytest

from repro.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
)
from tests.metrics.exposition import to_prometheus, untimed


class TestLogBuckets:
    def test_default_span_and_monotonicity(self):
        bounds = log_buckets()
        assert bounds[0] == 1e-6
        assert bounds[-1] == 10.0
        assert bounds == sorted(bounds)
        assert len(bounds) == len(set(bounds))

    def test_deterministic_across_calls(self):
        assert log_buckets(1.0, 1024.0, 2) == log_buckets(1.0, 1024.0, 2)

    def test_rejects_bad_spans(self):
        with pytest.raises(ValueError):
            log_buckets(0.0, 1.0)
        with pytest.raises(ValueError):
            log_buckets(2.0, 1.0)
        with pytest.raises(ValueError):
            log_buckets(1.0, 2.0, per_decade=0)


class TestInstruments:
    def test_counter_increments(self):
        counter = Counter("c", "")
        for _ in range(5):
            counter.inc()
        assert counter.value == 5

    def test_gauge_set_inc_dec(self):
        gauge = Gauge("g", "")
        gauge.set(10.5)
        gauge.inc()
        gauge.inc()
        assert gauge.value == 12.5
        gauge.set(3.0)  # a gauge goes down by being set
        assert gauge.value == 3.0

    def test_histogram_observe_count_sum(self):
        hist = Histogram("h", "", bounds=[1.0, 10.0, 100.0])
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == 555.5
        assert hist.counts == [1, 1, 1, 1]  # one overflow past 100

    def test_histogram_percentile_interpolates(self):
        hist = Histogram("h", "", bounds=[1.0, 2.0, 4.0, 8.0])
        for _ in range(100):
            hist.observe(1.5)
        p50 = hist.percentile(50.0)
        assert 1.0 <= p50 <= 2.0
        assert hist.percentile(0.0) <= hist.percentile(100.0)

    def test_histogram_percentile_empty_is_zero(self):
        assert Histogram("h", "").percentile(99.0) == 0.0

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", "", bounds=[2.0, 1.0])


class TestRegistry:
    def test_snapshot_is_name_sorted_and_plain_data(self):
        registry = MetricsRegistry()
        for _ in range(3):
            registry.counter("zz").inc()
        registry.gauge("aa").set(1.5)
        registry.histogram("mm", bounds=[1.0]).observe(0.5)
        snap = registry.snapshot()
        assert list(snap) == ["aa", "mm", "zz"]
        assert snap["zz"] == 3
        assert snap["mm"]["count"] == 1
        json.dumps(snap)  # plain data, serialisable

    def test_reregistration_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        with pytest.raises(ValueError):
            registry.gauge("c")  # same name, different kind

    def test_view_reads_lazily(self):
        registry = MetricsRegistry()
        box = {"v": 1}
        registry.view("boxed", lambda: box["v"])
        assert registry.snapshot()["boxed"] == 1
        box["v"] = 7
        assert registry.snapshot()["boxed"] == 7

    def test_duplicate_view_requires_replace(self):
        registry = MetricsRegistry()
        registry.view("v", lambda: 1)
        with pytest.raises(ValueError):
            registry.view("v", lambda: 2)
        registry.view("v", lambda: 2, replace=True)
        assert registry.snapshot()["v"] == 2

    def test_mount_exposes_numeric_dataclass_fields(self):
        from repro.core.stats import ZExpanderStats

        registry = MetricsRegistry()
        stats = ZExpanderStats()
        registry.mount("cache", stats)
        stats.gets += 5
        snap = registry.snapshot()
        assert snap["cache_gets"] == 5
        assert snap["cache_get_misses"] == 0

    def test_timing_metrics_excluded_from_golden_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("steady").inc()
        registry.gauge("wall_seconds", timing=True).set(1.23)
        registry.histogram("lat", timing=True).observe(0.1)
        full = registry.snapshot()
        assert "wall_seconds" in full and "lat" in full
        assert registry.timed == {"wall_seconds", "lat"}
        assert set(untimed(registry)) == {"steady"}

    def test_summary_flattens_histograms(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", bounds=[1.0, 10.0])
        hist.observe(0.5)
        hist.observe(5.0)
        summary = registry.summary()
        assert summary["lat_seconds_count"] == 2
        assert summary["lat_seconds_sum"] == 5.5
        assert 0.0 < summary["lat_seconds_p50"] <= 10.0

    def test_is_view_tells_mounted_from_owned(self):
        registry = MetricsRegistry()
        registry.counter("owned").inc()
        registry.histogram("lat", bounds=[1.0])
        registry.view("mounted", lambda: 9)
        assert set(registry.summary()) >= {"owned", "mounted", "lat_p99"}
        assert registry.is_view("mounted")
        # A flattened histogram key is part of an owned instrument.
        assert not registry.is_view("owned") and not registry.is_view("lat_p99")

    def test_prometheus_exposition_shape(self):
        registry = MetricsRegistry()
        requests = registry.counter("reqs_total", "requests")
        requests.inc()
        requests.inc()
        registry.histogram("lat", "latency", bounds=[1.0, 10.0]).observe(0.5)
        text = to_prometheus(registry)
        assert "# TYPE repro_reqs_total counter" in text
        assert "repro_reqs_total 2" in text
        assert 'repro_lat_bucket{le="1"} 1' in text
        assert 'repro_lat_bucket{le="+Inf"} 1' in text
        assert "repro_lat_count 1" in text
        assert text.endswith("\n")

    def test_prometheus_deterministic_for_same_sequence(self):
        def build():
            registry = MetricsRegistry()
            for _ in range(3):
                registry.counter("a").inc()
            hist = registry.histogram("h", bounds=log_buckets(1.0, 100.0, 2))
            for value in (1.0, 7.0, 40.0):
                hist.observe(value)
            return to_prometheus(registry)

        assert build() == build()
