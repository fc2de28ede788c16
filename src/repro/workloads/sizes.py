"""Value-size samplers.

Miss-ratio experiments only need value *sizes* per key, not bytes.  These
samplers reproduce the published size characteristics of the Facebook
workloads (e.g. USR's fixed 2 B values, ETC's heavy mass under 16 B).
"""

from __future__ import annotations

import abc
import math
import random
from typing import List, Sequence, Tuple


class SizeSampler(abc.ABC):
    """Draws one value size (in bytes) per call."""

    @abc.abstractmethod
    def sample(self, rng: random.Random) -> int:
        """Return a sampled value size, always >= 1."""


class FixedSize(SizeSampler):
    """Every value has the same size (USR's 2 B values)."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        self.size = size

    def sample(self, rng: random.Random) -> int:
        return self.size


class UniformSize(SizeSampler):
    """Sizes uniform in ``[low, high]`` inclusive."""

    def __init__(self, low: int, high: int) -> None:
        if not 1 <= low <= high:
            raise ValueError(f"need 1 <= low <= high, got [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random) -> int:
        return rng.randint(self.low, self.high)


class LogNormalSize(SizeSampler):
    """Log-normally distributed sizes, clipped to ``[low, high]``.

    Value sizes in memcached deployments are famously heavy-tailed; the
    Facebook characterisation's size histograms are well approximated by
    clipped log-normals.
    """

    def __init__(
        self, median: float, sigma: float, low: int = 1, high: int = 1 << 20
    ) -> None:
        if median <= 0:
            raise ValueError(f"median must be positive, got {median}")
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        if not 1 <= low <= high:
            raise ValueError(f"need 1 <= low <= high, got [{low}, {high}]")
        self.mu = math.log(median)
        self.sigma = sigma
        self.low = low
        self.high = high

    def sample(self, rng: random.Random) -> int:
        size = int(round(rng.lognormvariate(self.mu, self.sigma)))
        return max(self.low, min(self.high, size))


class DiscreteMixtureSize(SizeSampler):
    """A weighted mixture of size samplers.

    Used for ETC, where ~40 % of requests carry values under 16 B while 90 %
    of *space* is occupied by values under 500 B — a shape no single simple
    distribution matches.
    """

    def __init__(self, components: Sequence[Tuple[float, SizeSampler]]) -> None:
        if not components:
            raise ValueError("mixture needs at least one component")
        weights = [w for w, _ in components]
        if any(w <= 0 for w in weights):
            raise ValueError("mixture weights must be positive")
        total = sum(weights)
        self._cumulative: List[float] = []
        running = 0.0
        for weight in weights:
            running += weight / total
            self._cumulative.append(running)
        self._samplers = [sampler for _, sampler in components]

    def sample(self, rng: random.Random) -> int:
        u = rng.random()
        for cumulative, sampler in zip(self._cumulative, self._samplers):
            if u <= cumulative:
                return sampler.sample(rng)
        return self._samplers[-1].sample(rng)
