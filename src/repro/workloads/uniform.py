"""Uniform key-popularity generator.

Used by the Figure 15/16 adaptation experiment, which starts with a uniform
access pattern (no locality, so the adaptive controller grows the N-zone)
and then switches to Zipfian.
"""

from __future__ import annotations

import numpy as np

from repro.common.rng import derive_seed


class UniformGenerator:
    """Draws ranks uniformly from ``[0, num_items)``."""

    def __init__(self, num_items: int, seed: int = 0) -> None:
        if num_items < 1:
            raise ValueError(f"num_items must be >= 1, got {num_items}")
        self.num_items = num_items
        self._np_rng = np.random.default_rng(derive_seed(seed, "uniform"))

    def sample(self, count: int) -> np.ndarray:
        """Draw ``count`` ranks as an ``int64`` array."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return self._np_rng.integers(0, self.num_items, size=count, dtype=np.int64)
