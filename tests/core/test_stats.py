"""Tests for ZExpanderStats arithmetic."""

import pytest

from repro.core.stats import ZExpanderStats


class TestStats:
    def test_miss_ratio_counts_sets_as_hits(self):
        stats = ZExpanderStats(gets=80, get_misses=20, sets=20)
        assert stats.miss_ratio == pytest.approx(0.2)

    def test_empty_miss_ratio(self):
        assert ZExpanderStats().miss_ratio == 0.0

    def test_service_fraction(self):
        stats = ZExpanderStats(serviced_nzone=90, serviced_zzone=10)
        assert stats.nzone_service_fraction == pytest.approx(0.9)

    def test_service_fraction_empty_defaults_to_one(self):
        assert ZExpanderStats().nzone_service_fraction == 1.0

    def test_snapshot_is_independent_copy(self):
        stats = ZExpanderStats(gets=5)
        snapshot = stats.snapshot()
        stats.gets = 10
        assert snapshot.gets == 5

    def test_delta(self):
        earlier = ZExpanderStats(gets=5, sets=2)
        later = ZExpanderStats(gets=9, sets=4, get_misses=1)
        delta = later.delta(earlier)
        assert delta.gets == 4
        assert delta.sets == 2
        assert delta.get_misses == 1

    def test_delta_roundtrip_with_snapshot(self):
        stats = ZExpanderStats(gets=1)
        snap = stats.snapshot()
        stats.gets += 7
        stats.demotions += 3
        delta = stats.delta(snap)
        assert delta.gets == 7
        assert delta.demotions == 3
