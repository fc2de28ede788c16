"""Tests for marker-based locality benchmarking."""

import pytest

from repro.core import SimpleKVCache
from repro.core.marker import MARKER_PREFIX, LocalityBenchmark, is_marker_key
from repro.core.snapshot import iter_cache_items
from tests.nzone.plain import PlainZone


class TestMarkerKeys:
    def test_minted_keys_are_markers(self):
        benchmark = LocalityBenchmark()
        key = benchmark.mint(now=0.0)
        assert is_marker_key(key)

    def test_real_keys_are_not_markers(self):
        assert not is_marker_key(b"user:123")
        assert not is_marker_key(b"")

    def test_prefixed_library_keys_are_not_markers(self):
        # Only the minted shape is a probe; a key that merely shares the
        # prefix is an item and must not be hidden from images.
        assert not is_marker_key(MARKER_PREFIX)
        assert not is_marker_key(MARKER_PREFIX + b"x")
        assert not is_marker_key(MARKER_PREFIX + b"1" * 17)
        assert not is_marker_key(MARKER_PREFIX + b"a" * 16)

    def test_prefixed_library_key_reaches_an_image(self):
        cache = SimpleKVCache(PlainZone(1 << 16))
        cache.set(MARKER_PREFIX, b"v")
        assert dict(iter_cache_items(cache)) == {MARKER_PREFIX: b"v"}

    def test_marker_prefix_impossible_in_memcached(self):
        # memcached keys cannot contain control characters.
        assert MARKER_PREFIX[0] == 0

    def test_keys_unique(self):
        benchmark = LocalityBenchmark()
        keys = {benchmark.mint(now=float(i)) for i in range(100)}
        assert len(keys) == 100


class TestBenchmark:
    def test_no_samples_no_value(self):
        assert LocalityBenchmark().value is None

    def test_single_sample(self):
        benchmark = LocalityBenchmark()
        key = benchmark.mint(now=10.0)
        sample = benchmark.observe_eviction(key, now=25.0)
        assert sample == pytest.approx(15.0)
        assert benchmark.value == pytest.approx(15.0)

    def test_non_marker_eviction_ignored(self):
        benchmark = LocalityBenchmark()
        assert benchmark.observe_eviction(b"regular-key", now=5.0) is None
        assert benchmark.value is None

    def test_weighted_average_of_three(self):
        benchmark = LocalityBenchmark()
        for insert, evict in ((0.0, 10.0), (0.0, 20.0), (0.0, 30.0)):
            key = benchmark.mint(now=insert)
            benchmark.observe_eviction(key, now=evict)
        # Newest first: 30*0.5 + 20*0.3 + 10*0.2 = 23.
        assert benchmark.value == pytest.approx(23.0)

    def test_only_three_samples_kept(self):
        benchmark = LocalityBenchmark()
        for age in (5.0, 50.0, 500.0, 7.0):
            key = benchmark.mint(now=0.0)
            benchmark.observe_eviction(key, now=age)
        # 5.0 fell out: 7*0.5 + 500*0.3 + 50*0.2.
        assert benchmark.value == pytest.approx(163.5)

    def test_outstanding_tracking(self):
        benchmark = LocalityBenchmark()
        key = benchmark.mint(now=0.0)
        assert benchmark.observe_eviction(key, now=1.0) == pytest.approx(1.0)
        assert benchmark.observe_eviction(key, now=2.0) is None  # settled
