"""Deterministic random-number plumbing.

Every stochastic component takes an explicit seed and derives child seeds
through :func:`derive_seed`, so one top-level seed pins an entire
experiment while sub-components stay statistically independent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.common.hashing import fnv1a_64


def derive_seed(parent_seed: int, label: str) -> int:
    """Derive a child seed from ``parent_seed`` and a component ``label``.

    The derivation hashes the label so two components of the same parent
    never share a stream, and renaming a component changes only its own
    stream.
    """
    return fnv1a_64(label.encode("utf-8"), seed=parent_seed & 0xFFFFFFFFFFFFFFFF)


def make_rng(seed: int, label: str = "") -> random.Random:
    """Return a :class:`random.Random` seeded from ``seed`` (and ``label``)."""
    if label:
        seed = derive_seed(seed, label)
    return random.Random(seed)


@dataclass
class RetryPolicy:
    """Exponential backoff with full jitter."""

    max_attempts: int = 4
    backoff_base: float = 0.02
    backoff_cap: float = 0.5

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Sleep before retry ``attempt`` (1-based): full jitter."""
        ceiling = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
        return rng.uniform(0.0, ceiling)
