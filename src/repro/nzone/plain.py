"""Reference N-zone: dict + LRU, charged at payload size only.

Useful in tests (simplest possible correct zone) and as the "ideal"
baseline with zero metadata overhead in memory-efficiency comparisons.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from repro.nzone.base import EvictedItem, NZone


class PlainZone(NZone):
    """Byte-bounded LRU over an ordered dict; no overhead modelling."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._items: "OrderedDict[bytes, bytes]" = OrderedDict()
        self._used = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def item_count(self) -> int:
        return len(self._items)

    def get(self, key: bytes, hashed: Optional[int] = None) -> Optional[bytes]:
        value = self._items.get(key)
        if value is None:
            return None
        self._items.move_to_end(key)
        return value

    def set(self, key: bytes, value: bytes) -> List[EvictedItem]:
        size = len(key) + len(value)
        if size > self._capacity:
            # Too big to ever fit; report it straight through as a spill.
            return [EvictedItem(key=key, value=value)]
        old = self._items.pop(key, None)
        if old is not None:
            self._used -= len(key) + len(old)
        self._items[key] = value
        self._used += size
        return self._evict_to_fit()

    def _evict_to_fit(self) -> List[EvictedItem]:
        evicted: List[EvictedItem] = []
        while self._used > self._capacity and self._items:
            victim_key, victim_value = self._items.popitem(last=False)
            self._used -= len(victim_key) + len(victim_value)
            evicted.append(EvictedItem(key=victim_key, value=victim_value))
        return evicted

    def delete(self, key: bytes, hashed: Optional[int] = None) -> bool:
        value = self._items.pop(key, None)
        if value is None:
            return False
        self._used -= len(key) + len(value)
        return True

    def __contains__(self, key: bytes) -> bool:
        return key in self._items

    def resize(self, capacity: int) -> List[EvictedItem]:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        return self._evict_to_fit()

    def memory_usage(self) -> Dict[str, int]:
        return {"items": self._used, "metadata": 0, "other": 0}

    def items(self):
        return iter(list(self._items.items()))

    def check_invariants(self) -> None:
        total = sum(len(k) + len(v) for k, v in self._items.items())
        if total != self._used:
            raise AssertionError(f"used={self._used}, actual={total}")
        if self._used > self._capacity:
            raise AssertionError("over capacity")
