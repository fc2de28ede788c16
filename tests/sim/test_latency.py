"""Tests for the latency model."""

import numpy as np
import pytest

from repro.sim.costmodel import HIGH_PERFORMANCE_COSTS, OpKind
from repro.sim.latency import LatencyModel
from repro.sim.perfsim import OpMix


def hcache_mix():
    return OpMix(
        rates={OpKind.NZONE_GET_HIT: 0.92, OpKind.FILTERED_MISS: 0.03,
               OpKind.NZONE_SET: 0.05},
        lock_share=1.0,
        set_fraction=0.05,
    )


def hzx_mix():
    return OpMix(
        rates={OpKind.NZONE_GET_HIT: 0.83, OpKind.ZZONE_GET_HIT: 0.08,
               OpKind.FILTERED_MISS: 0.02, OpKind.NZONE_SET: 0.05,
               OpKind.DEMOTION: 0.04},
        lock_share=0.88,
        set_fraction=0.05,
    )


def reported(samples, points):
    """cdf_points over fixed ``samples``: the model's percentile reporting."""
    model = LatencyModel(HIGH_PERFORMANCE_COSTS)
    model.sample = lambda mix, threads, count: np.asarray(samples, dtype=float)
    return dict(model.cdf_points(hcache_mix(), 1, count=len(samples), points=points))


class TestPercentile:
    def test_median(self):
        assert reported([3.0, 1.0, 2.0], [50])[50] == 2.0

    def test_interpolation(self):
        assert reported([0.0, 10.0], [50])[50] == 5.0

    def test_extremes(self):
        assert reported([1.0, 2.0, 3.0], [0, 100]) == {0: 1.0, 100: 3.0}

    def test_single_sample(self):
        assert reported([7.0], [99])[99] == 7.0

    def test_errors(self):
        model = LatencyModel(HIGH_PERFORMANCE_COSTS)
        with pytest.raises(ValueError):
            model.cdf_points(hcache_mix(), 4, count=0)
        with pytest.raises(ValueError):
            reported([1.0], [101])


class TestLatencyModel:
    def test_samples_positive(self):
        model = LatencyModel(HIGH_PERFORMANCE_COSTS, seed=1)
        samples = model.sample(hcache_mix(), threads=8, count=1000)
        assert (samples > 0).all()

    def test_deterministic_by_seed(self):
        a = LatencyModel(HIGH_PERFORMANCE_COSTS, seed=5).sample(hcache_mix(), 8, 100)
        b = LatencyModel(HIGH_PERFORMANCE_COSTS, seed=5).sample(hcache_mix(), 8, 100)
        assert (a == b).all()

    def test_more_threads_longer_tail(self):
        model = LatencyModel(HIGH_PERFORMANCE_COSTS, seed=2)
        few = model.cdf_points(hcache_mix(), threads=2, count=50_000)
        many = model.cdf_points(hcache_mix(), threads=24, count=50_000)
        assert dict(many)[99.0] > dict(few)[99.0]

    def test_figure11_tail_crossover(self):
        """H-zExpander's p99 beats H-Cache's at 24 threads (Figure 11)."""
        model = LatencyModel(HIGH_PERFORMANCE_COSTS, seed=3)
        hcache_p99 = dict(model.cdf_points(hcache_mix(), 24, count=200_000))[99.0]
        hzx_p99 = dict(model.cdf_points(hzx_mix(), 24, count=200_000))[99.0]
        assert hzx_p99 < hcache_p99

    def test_paper_magnitude_at_24_threads(self):
        """Figure 11b: p99 around 4-5 microseconds."""
        model = LatencyModel(HIGH_PERFORMANCE_COSTS, seed=4)
        p99 = dict(model.cdf_points(hcache_mix(), 24, count=200_000))[99.0]
        assert 2e-6 < p99 < 9e-6

    def test_invalid_count(self):
        model = LatencyModel(HIGH_PERFORMANCE_COSTS)
        with pytest.raises(ValueError):
            model.sample(hcache_mix(), 4, count=0)

    def test_empty_mix_rejected(self):
        model = LatencyModel(HIGH_PERFORMANCE_COSTS)
        with pytest.raises(ValueError):
            model.sample(OpMix(rates={}), 4, count=10)
