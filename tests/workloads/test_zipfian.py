"""Tests for repro.workloads.zipfian."""

import collections

import numpy as np
import pytest

from repro.workloads.zipfian import MAX_THETA, ZipfianGenerator, zeta


def zipf_pmf(rank: int, num_items: int, theta: float) -> float:
    """Exact Zipf(theta) popularity of ``rank`` (0 = hottest)."""
    return (1.0 / (rank + 1) ** theta) / zeta(num_items, theta)


class TestZeta:
    def test_small_values(self):
        assert zeta(1, 1.0) == pytest.approx(1.0)
        assert zeta(2, 1.0) == pytest.approx(1.5)
        assert zeta(3, 1.0) == pytest.approx(1.0 + 0.5 + 1 / 3)

    def test_theta_zero_is_n(self):
        assert zeta(100, 0.0) == pytest.approx(100.0)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            zeta(0, 0.99)

    def test_cached(self):
        assert zeta(5000, 0.99) == zeta(5000, 0.99)

    def test_cache_is_bounded(self):
        from repro.workloads import zipfian

        for n in range(1, 2 * zipfian._ZETA_CACHE_LIMIT):
            zeta(n, 0.5)
        assert len(zipfian._ZETA_CACHE) <= zipfian._ZETA_CACHE_LIMIT
        # Eviction is FIFO: the newest entry survives and stays correct.
        newest = 2 * zipfian._ZETA_CACHE_LIMIT - 1
        assert (newest, 0.5) in zipfian._ZETA_CACHE
        assert zeta(newest, 0.5) == pytest.approx(
            float(np.sum(1.0 / np.arange(1, newest + 1) ** 0.5))
        )


class TestZipfianGenerator:
    def test_rank_range(self):
        generator = ZipfianGenerator(100, theta=0.99, seed=1)
        ranks = generator.sample(5000)
        assert ranks.min() >= 0
        assert ranks.max() < 100

    def test_rank_zero_most_frequent(self):
        generator = ZipfianGenerator(1000, theta=0.99, seed=2)
        counts = collections.Counter(generator.sample(30_000).tolist())
        assert counts[0] == max(counts.values())

    def test_skew_matches_probability(self):
        generator = ZipfianGenerator(500, theta=0.99, seed=3)
        counts = collections.Counter(generator.sample(100_000).tolist())
        expected = zipf_pmf(0, 500, 0.99)
        observed = counts[0] / 100_000
        assert observed == pytest.approx(expected, rel=0.1)

    def test_theta_above_one_uses_cdf_path(self):
        generator = ZipfianGenerator(200, theta=1.3, seed=4)
        ranks = generator.sample(20_000)
        assert ranks.min() >= 0 and ranks.max() < 200
        counts = collections.Counter(ranks.tolist())
        # theta > 1 concentrates even harder on rank 0.
        assert counts[0] / 20_000 > 0.3

    def test_higher_theta_more_concentrated(self):
        mild = ZipfianGenerator(1000, theta=0.5, seed=5)
        sharp = ZipfianGenerator(1000, theta=0.99, seed=5)
        mild_top = np.mean(mild.sample(30_000) < 10)
        sharp_top = np.mean(sharp.sample(30_000) < 10)
        assert sharp_top > mild_top

    def test_single_item(self):
        generator = ZipfianGenerator(1, theta=0.5, seed=6)
        assert (generator.sample(100) == 0).all()

    def test_probabilities_sum_to_one(self):
        total = sum(zipf_pmf(rank, 50, 0.8) for rank in range(50))
        assert total == pytest.approx(1.0)

    def test_deterministic_by_seed(self):
        a = ZipfianGenerator(100, seed=9).sample(50)
        b = ZipfianGenerator(100, seed=9).sample(50)
        assert (a == b).all()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, theta=0.0)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, theta=MAX_THETA + 1)

    def test_sample_zero(self):
        assert len(ZipfianGenerator(10).sample(0)) == 0

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(10).sample(-1)
