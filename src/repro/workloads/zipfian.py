"""Zipfian key-popularity generator.

Two sampling strategies behind one interface:

* ``theta < 1`` — the constant-time rejection-free sampler from Gray et
  al.'s "Quickly Generating Billion-Record Synthetic Databases", the same
  algorithm YCSB's ``ZipfianGenerator`` implements (and the paper's YCSB
  trace uses its default skew 0.99).  Vectorised with numpy for batch
  draws.
* ``theta >= 1`` — the Gray closed form is undefined at 1, so draws fall
  back to inverse-CDF sampling over a precomputed cumulative table.  The
  Facebook ETC trace calibrates to theta slightly above 1 at bench scales,
  which is why this path exists.

Rank 0 is the most popular item.  Trace builders map ranks to keys
(optionally through a scrambling permutation, as YCSB's
``ScrambledZipfianGenerator`` does, so popularity is not correlated with
key order).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.common.rng import derive_seed

#: Cache of zeta(n, theta): computing it is O(n) and benches reuse the
#: same (n, theta) across many trace builds.  Bounded FIFO so a long
#: parameter sweep (calibration walks hundreds of thetas) cannot grow it
#: without limit; 256 entries comfortably cover any one experiment grid.
_ZETA_CACHE: Dict[Tuple[int, float], float] = {}
_ZETA_CACHE_LIMIT = 256

#: Above this skew the popularity mass concentrates so hard that the
#: cumulative table underflows float64 resolution for big key spaces.
MAX_THETA = 4.0


def zeta(n: int, theta: float) -> float:
    """Return the generalized harmonic number ``sum_{i=1..n} 1/i^theta``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    key = (n, theta)
    cached = _ZETA_CACHE.get(key)
    if cached is None:
        cached = float(np.sum(1.0 / np.arange(1, n + 1, dtype=np.float64) ** theta))
        if len(_ZETA_CACHE) >= _ZETA_CACHE_LIMIT:
            # Drop the oldest entry (insertion order): sweeps move through
            # parameters monotonically, so FIFO evicts what won't recur.
            del _ZETA_CACHE[next(iter(_ZETA_CACHE))]
        _ZETA_CACHE[key] = cached
    return cached


class ZipfianGenerator:
    """Draws ranks in ``[0, num_items)`` with Zipf(theta) popularity."""

    def __init__(self, num_items: int, theta: float = 0.99, seed: int = 0) -> None:
        if num_items < 1:
            raise ValueError(f"num_items must be >= 1, got {num_items}")
        if not 0.0 < theta <= MAX_THETA:
            raise ValueError(f"theta must be in (0, {MAX_THETA}], got {theta}")
        self.num_items = num_items
        self.theta = theta
        self._np_rng = np.random.default_rng(derive_seed(seed, "zipfian"))
        self._cdf = None
        if theta < 1.0 and num_items >= 2:
            self._zetan = zeta(num_items, theta)
            self._zeta2 = zeta(2, theta)
            self._alpha = 1.0 / (1.0 - theta)
            self._eta = (1.0 - (2.0 / num_items) ** (1.0 - theta)) / (
                1.0 - self._zeta2 / self._zetan
            )
        elif theta >= 1.0:
            weights = 1.0 / np.arange(1, num_items + 1, dtype=np.float64) ** theta
            self._cdf = np.cumsum(weights)
            self._cdf /= self._cdf[-1]

    def sample(self, count: int) -> np.ndarray:
        """Draw ``count`` ranks as an ``int64`` array."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count == 0:
            return np.empty(0, dtype=np.int64)
        if self.num_items == 1:
            return np.zeros(count, dtype=np.int64)
        u = self._np_rng.random(count)
        if self._cdf is not None:
            return np.searchsorted(self._cdf, u, side="left").astype(np.int64)
        uz = u * self._zetan
        ranks = (
            self.num_items * (self._eta * u - self._eta + 1.0) ** self._alpha
        ).astype(np.int64)
        # Floating-point slop can land exactly on num_items.
        np.clip(ranks, 0, self.num_items - 1, out=ranks)
        ranks[uz < 1.0 + 0.5**self.theta] = 1
        ranks[uz < 1.0] = 0
        return ranks
