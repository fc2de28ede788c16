"""Shared trace-synthesis driver.

Both the YCSB workload and the Facebook-like traces are instances of the
same recipe: draw a popularity rank, scramble it to a key id, pick an
operation from the GET/SET/DELETE mix, and attach the key's value size.

Rank draws and op picks are batched through numpy; the scrambling
permutation and the per-key size are memoised (popularity skew means a few
hot ranks dominate, so both caches hit almost always).
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Protocol

import numpy as np

from repro.common.permutation import FeistelPermutation
from repro.common.rng import derive_seed
from repro.workloads.sizes import SizeSampler
from repro.workloads.trace import OP_DELETE, OP_GET, OP_SET, Trace, TraceBuilder
from repro.workloads.values import ValueGenerator


class RankGenerator(Protocol):
    """Popularity source: ZipfianGenerator and UniformGenerator both fit."""

    def sample(self, count: int) -> np.ndarray:  # pragma: no cover - protocol
        ...


class KeySizeAssigner:
    """Assigns every key id a stable value size.

    A key's size must not change between its SETs and the demand fills of
    its GET misses, so sizes are drawn once per key (seeded by the key id)
    and memoised.
    """

    def __init__(
        self,
        seed: int,
        sampler: Optional[SizeSampler] = None,
        value_generator: Optional[ValueGenerator] = None,
    ) -> None:
        if (sampler is None) == (value_generator is None):
            raise ValueError("provide exactly one of sampler / value_generator")
        self._seed = seed
        self._sampler = sampler
        self._value_generator = value_generator
        self._cache: Dict[int, int] = {}

    def size_for(self, key_id: int) -> int:
        cached = self._cache.get(key_id)
        if cached is not None:
            return cached
        if self._value_generator is not None:
            size = len(self._value_generator.generate(key_id))
        else:
            rng = random.Random(derive_seed(self._seed, f"size-{key_id}"))
            size = self._sampler.sample(rng)
        self._cache[key_id] = size
        return size


def synthesize_trace(
    name: str,
    num_requests: int,
    num_keys: int,
    rank_generator: RankGenerator,
    size_assigner: KeySizeAssigner,
    get_fraction: float = 0.95,
    set_fraction: float = 0.05,
    delete_fraction: float = 0.0,
    seed: int = 0,
    key_prefix: bytes = b"key:",
) -> Trace:
    """Build a compact trace from a popularity source and an op mix.

    ``rank_generator`` yields popularity ranks (0 = hottest), mapped
    through a bijective permutation so key ids are uncorrelated with
    popularity, matching YCSB's scrambled-Zipfian behaviour.
    """
    fractions = (get_fraction, set_fraction, delete_fraction)
    if any(f < 0 for f in fractions):
        raise ValueError(f"operation fractions must be non-negative: {fractions}")
    total = sum(fractions)
    if not 0.999 <= total <= 1.001:
        raise ValueError(f"operation fractions must sum to 1, got {total}")

    op_rng = np.random.default_rng(derive_seed(seed, "ops"))
    draws = op_rng.random(num_requests)
    ops = np.full(num_requests, OP_DELETE, dtype=np.int8)
    ops[draws < get_fraction + set_fraction] = OP_SET
    ops[draws < get_fraction] = OP_GET

    ranks = rank_generator.sample(num_requests)
    permutation = FeistelPermutation(num_keys, seed=derive_seed(seed, "scramble"))
    scramble_cache: Dict[int, int] = {}
    builder = TraceBuilder(name, num_keys, key_prefix=key_prefix)

    for op, rank in zip(ops, ranks):
        rank = int(rank)
        key_id = scramble_cache.get(rank)
        if key_id is None:
            key_id = permutation.apply(rank)
            scramble_cache[rank] = key_id
        builder.add(int(op), key_id, size_assigner.size_for(key_id))
    return builder.build()
