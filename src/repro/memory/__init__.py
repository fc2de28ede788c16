"""Memory accounting: where a cache's bytes actually go (Figure 7)."""

from repro.memory.accounting import (
    UsageBreakdown,
    breakdown_memcached,
    breakdown_zzone,
    fill_memcached,
    fill_zzone,
)
from repro.memory.malloc import MallocModel

__all__ = [
    "MallocModel",
    "UsageBreakdown",
    "breakdown_memcached",
    "breakdown_zzone",
    "fill_memcached",
    "fill_zzone",
]
