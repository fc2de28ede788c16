"""Tests for repro.workloads.uniform."""

import collections

import pytest

from repro.workloads.uniform import UniformGenerator


class TestUniformGenerator:
    def test_range(self):
        generator = UniformGenerator(50, seed=1)
        ranks = generator.sample(5000)
        assert ranks.min() >= 0 and ranks.max() < 50

    def test_roughly_uniform(self):
        generator = UniformGenerator(10, seed=2)
        counts = collections.Counter(generator.sample(50_000).tolist())
        for rank in range(10):
            assert abs(counts[rank] - 5000) < 600

    def test_deterministic(self):
        a = UniformGenerator(100, seed=3).sample(20)
        b = UniformGenerator(100, seed=3).sample(20)
        assert (a == b).all()

    def test_invalid(self):
        with pytest.raises(ValueError):
            UniformGenerator(0)
        with pytest.raises(ValueError):
            UniformGenerator(10).sample(-1)
