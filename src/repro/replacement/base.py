"""The policy-simulator interface.

A policy simulator is a byte-capacity cache of opaque keys.  It answers one
question per access — was the key resident? — and maintains residency under
its replacement discipline.  Values are never stored; only sizes are
tracked, because Section 2's analysis is about *which* items a policy keeps,
not about data movement.
"""

from __future__ import annotations

import abc
from typing import Dict


class EvictingCache(abc.ABC):
    """A byte-bounded cache of keys managed by a replacement policy."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._used = 0

    @property
    def used_bytes(self) -> int:
        """Bytes currently occupied by resident items."""
        return self._used

    @abc.abstractmethod
    def access(self, key: int, size: int) -> bool:
        """Touch ``key`` (GET hit path or demand fill on miss).

        Returns ``True`` if the key was resident (hit).  On a miss the key
        is admitted with ``size`` bytes, evicting per policy as needed.
        A resident key re-accessed with a different ``size`` is resized.
        """

    @abc.abstractmethod
    def delete(self, key: int) -> bool:
        """Remove ``key`` if resident; returns whether it was."""

    @abc.abstractmethod
    def __contains__(self, key: int) -> bool:
        """Residency check with **no** side effects on recency state."""

    @abc.abstractmethod
    def resident_sizes(self) -> Dict[int, int]:
        """Snapshot of resident keys and their sizes (for invariants)."""

    def check_invariants(self) -> None:
        """Assert internal bookkeeping is consistent; used by tests."""
        sizes = self.resident_sizes()
        total = sum(sizes.values())
        if total != self._used:
            raise AssertionError(
                f"{type(self).__name__}: used_bytes={self._used} but "
                f"resident items sum to {total}"
            )
        if self._used > self.capacity:
            raise AssertionError(
                f"{type(self).__name__}: used {self._used} B exceeds "
                f"capacity {self.capacity} B"
            )


def admit_oversized(cache: EvictingCache, size: int) -> bool:
    """Return True if a single item of ``size`` can never fit.

    Policies share this guard: an item larger than the whole cache is
    not admitted (and not counted as resident), matching how memcached
    rejects objects above the largest slab size.
    """
    return size > cache.capacity
