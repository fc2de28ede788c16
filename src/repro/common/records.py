"""The item record shared by the cache zones."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(eq=False, slots=True)
class KVItem:
    """A key-value item as stored in a cache zone.

    Slotted: block rebuilds materialise every resident item, so the
    per-instance ``__dict__`` was the Z-zone's dominant allocation.
    """

    key: bytes
    value: bytes
    hashed_key: int = -1

    @property
    def size(self) -> int:
        """Uncompressed payload size (key plus value bytes)."""
        return len(self.key) + len(self.value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KVItem):
            return NotImplemented
        return self.key == other.key and self.value == other.value

    def __hash__(self) -> int:  # pragma: no cover - identity convenience
        return hash((self.key, self.value))
