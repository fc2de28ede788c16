"""The N-zone interface.

Mutating operations return the items they evicted instead of invoking a
callback: zExpander's core loop routes those spills into the Z-zone, and
explicit return values keep the data flow visible and testable.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class EvictedItem:
    """An item pushed out of the N-zone, with its
    :func:`~repro.common.hashing.hash_key` when the zone had to compute
    it anyway (a hashed index), so the Z-zone put need not again."""

    key: bytes
    value: bytes
    hashed: Optional[int] = None

    @property
    def size(self) -> int:
        return len(self.key) + len(self.value)


class NZone(abc.ABC):
    """Byte-bounded uncompressed KV cache."""

    @property
    @abc.abstractmethod
    def capacity(self) -> int:
        """Current byte budget."""

    @property
    @abc.abstractmethod
    def used_bytes(self) -> int:
        """Bytes charged, including metadata and fragmentation."""

    @property
    @abc.abstractmethod
    def item_count(self) -> int:
        """Resident item count."""

    # ``hashed`` on get and delete is ``key``'s hash_key when the caller
    # has it: a zone with a hashed index uses it instead of hashing again,
    # the others ignore it.

    @abc.abstractmethod
    def get(self, key: bytes, hashed: Optional[int] = None) -> Optional[bytes]:
        """Return the value for ``key`` (refreshing recency) or None."""

    @abc.abstractmethod
    def set(self, key: bytes, value: bytes) -> List[EvictedItem]:
        """Insert or replace; returns the items evicted to make room."""

    @abc.abstractmethod
    def delete(self, key: bytes, hashed: Optional[int] = None) -> bool:
        """Remove ``key``; returns whether it was resident."""

    @abc.abstractmethod
    def __contains__(self, key: bytes) -> bool:
        """Residency check without touching recency state."""

    @abc.abstractmethod
    def resize(self, capacity: int) -> List[EvictedItem]:
        """Change the byte budget; shrinking evicts and returns spills."""

    @abc.abstractmethod
    def memory_usage(self) -> Dict[str, int]:
        """Byte breakdown: at least ``items``, ``metadata``, ``other``."""

    @abc.abstractmethod
    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Iterate resident (key, value) pairs, without recency effects.

        Order is implementation-defined; used by snapshots and debugging.
        """

    def check_invariants(self) -> None:
        """Hook for subclasses to assert internal consistency in tests."""
