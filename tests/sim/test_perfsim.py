"""Tests for mixes and the performance model."""

import pytest

from repro.core.stats import ZExpanderStats
from repro.sim.costmodel import (
    HIGH_PERFORMANCE_COSTS,
    MEMCACHED_COSTS,
    CostModel,
    OpKind,
)
from repro.sim.contention import MEMCACHED_CONTENTION
from repro.sim.perfsim import OpMix, PerformanceModel, mix_from_stats


def stats_sample():
    return ZExpanderStats(
        gets=900,
        get_hits_nzone=700,
        get_hits_zzone=100,
        get_misses=100,
        sets=100,
        demotions=50,
        promotions=10,
    )


class TestMixFromStats:
    def test_rates_per_request(self):
        mix = mix_from_stats(stats_sample())
        assert mix.rate(OpKind.NZONE_GET_HIT) == pytest.approx(0.7)
        assert mix.rate(OpKind.ZZONE_GET_HIT) == pytest.approx(0.1)
        assert mix.rate(OpKind.NZONE_SET) == pytest.approx(0.1)
        assert mix.rate(OpKind.DEMOTION) == pytest.approx(0.05)

    def test_lock_share_includes_half_misses(self):
        mix = mix_from_stats(stats_sample())
        expected = (700 + 100 + 10 + 0 + 0.5 * 100) / 1000
        assert mix.lock_share == pytest.approx(expected)

    def test_miss_ratio_carried(self):
        mix = mix_from_stats(stats_sample())
        assert mix.miss_ratio == pytest.approx(100 / 1000)

    def test_empty_stats_rejected(self):
        with pytest.raises(ValueError):
            mix_from_stats(ZExpanderStats())


class TestPerformanceModel:
    def test_service_time_weighted_sum(self):
        costs = CostModel(
            nzone_get_hit=1e-6,
            nzone_set=2e-6,
            zzone_get_hit=0,
            filtered_miss=0,
            false_positive_miss=0,
            demotion=0,
            promotion=0,
            zzone_delete=0,
            nzone_delete=0,
        )
        mix = OpMix(
            rates={OpKind.NZONE_GET_HIT: 0.5, OpKind.NZONE_SET: 0.5},
            lock_share=1.0,
        )
        model = PerformanceModel(costs)
        assert model.service_time(mix) == pytest.approx(1.5e-6)
        assert model.single_thread_rps(mix) == pytest.approx(1 / 1.5e-6)

    def test_network_charge_applied(self):
        mix = OpMix(rates={OpKind.NZONE_GET_HIT: 1.0})
        fast = PerformanceModel(HIGH_PERFORMANCE_COSTS).single_thread_rps(mix)
        slow = PerformanceModel(MEMCACHED_COSTS).single_thread_rps(mix)
        assert slow < fast / 5

    def test_paper_anchor_memcached_single_thread(self):
        """§4.3: memcached is below 100 K RPS with one thread."""
        mix = OpMix(
            rates={OpKind.NZONE_GET_HIT: 0.9, OpKind.NZONE_SET: 0.1},
            lock_share=1.0,
            set_fraction=0.05,
        )
        model = PerformanceModel(MEMCACHED_COSTS, MEMCACHED_CONTENTION)
        assert 70_000 < model.throughput(mix, 1) < 100_000
        assert model.throughput(mix, 24) < 700_000

    def test_paper_anchor_all_z_zone(self):
        """§4.3: all-requests-at-Z-zone is ~1.3 M RPS at one thread."""
        mix = OpMix(
            rates={OpKind.ZZONE_GET_HIT: 0.95, OpKind.DEMOTION: 0.05},
            lock_share=0.0,
            set_fraction=0.05,
        )
        model = PerformanceModel(HIGH_PERFORMANCE_COSTS)
        assert model.throughput(mix, 1) == pytest.approx(1.3e6, rel=0.15)

    def test_paper_anchor_hcache_peak(self):
        """Figure 10: all-GET peak is ~33 M RPS around 24 threads."""
        mix = OpMix(
            rates={OpKind.NZONE_GET_HIT: 0.95, OpKind.FILTERED_MISS: 0.05},
            lock_share=1.0,
            set_fraction=0.0,
        )
        model = PerformanceModel(HIGH_PERFORMANCE_COSTS)
        assert model.throughput(mix, 24) == pytest.approx(33e6, rel=0.15)

    def test_miss_rate(self):
        mix = OpMix(rates={OpKind.NZONE_GET_HIT: 1.0}, miss_ratio=0.1)
        model = PerformanceModel(HIGH_PERFORMANCE_COSTS)
        assert model.miss_rate(mix, 4) == pytest.approx(
            model.throughput(mix, 4) * 0.1
        )

    def test_empty_mix_rejected(self):
        model = PerformanceModel(HIGH_PERFORMANCE_COSTS)
        with pytest.raises(ValueError):
            model.service_time(OpMix(rates={}))
