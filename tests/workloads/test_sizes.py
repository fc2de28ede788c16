"""Tests for repro.workloads.sizes."""

import random

import pytest

from repro.workloads.sizes import (
    DiscreteMixtureSize,
    FixedSize,
    LogNormalSize,
    UniformSize,
)


@pytest.fixture
def rng():
    return random.Random(42)


def sample_mean(sampler, rng, count=4000):
    return sum(sampler.sample(rng) for _ in range(count)) / count


class TestFixedSize:
    def test_constant(self, rng):
        sampler = FixedSize(2)
        assert all(sampler.sample(rng) == 2 for _ in range(100))

    def test_mean(self, rng):
        assert sample_mean(FixedSize(7), rng) == 7.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            FixedSize(0)


class TestUniformSize:
    def test_bounds(self, rng):
        sampler = UniformSize(10, 20)
        samples = [sampler.sample(rng) for _ in range(500)]
        assert min(samples) >= 10 and max(samples) <= 20

    def test_mean(self, rng):
        assert sample_mean(UniformSize(10, 20), rng) == pytest.approx(15.0, abs=0.3)

    def test_invalid(self):
        with pytest.raises(ValueError):
            UniformSize(5, 4)
        with pytest.raises(ValueError):
            UniformSize(0, 4)


class TestLogNormalSize:
    def test_clipping(self, rng):
        sampler = LogNormalSize(median=100, sigma=2.0, low=50, high=200)
        samples = [sampler.sample(rng) for _ in range(1000)]
        assert min(samples) >= 50 and max(samples) <= 200

    def test_median_roughly_respected(self, rng):
        sampler = LogNormalSize(median=100, sigma=0.5)
        samples = sorted(sampler.sample(rng) for _ in range(4000))
        median = samples[2000]
        assert 85 <= median <= 115

    def test_mean_formula(self, rng):
        # exp(mu + sigma^2 / 2) for the unclipped distribution.
        sampler = LogNormalSize(median=100, sigma=0.5)
        assert sample_mean(sampler, rng) == pytest.approx(100 * 1.1331, rel=0.03)

    def test_invalid(self):
        with pytest.raises(ValueError):
            LogNormalSize(median=0, sigma=1.0)
        with pytest.raises(ValueError):
            LogNormalSize(median=10, sigma=-1.0)
        with pytest.raises(ValueError):
            LogNormalSize(median=10, sigma=1.0, low=10, high=5)


class TestDiscreteMixtureSize:
    def test_components_sampled(self, rng):
        mixture = DiscreteMixtureSize([(0.5, FixedSize(1)), (0.5, FixedSize(100))])
        samples = {mixture.sample(rng) for _ in range(200)}
        assert samples == {1, 100}

    def test_weights_respected(self, rng):
        mixture = DiscreteMixtureSize([(0.9, FixedSize(1)), (0.1, FixedSize(2))])
        ones = sum(1 for _ in range(5000) if mixture.sample(rng) == 1)
        assert 4200 <= ones <= 4800

    def test_mean_weighted(self, rng):
        mixture = DiscreteMixtureSize([(1.0, FixedSize(10)), (3.0, FixedSize(20))])
        assert sample_mean(mixture, rng) == pytest.approx(0.25 * 10 + 0.75 * 20, abs=0.3)

    def test_invalid(self):
        with pytest.raises(ValueError):
            DiscreteMixtureSize([])
        with pytest.raises(ValueError):
            DiscreteMixtureSize([(0.0, FixedSize(1))])
