"""Memory accounting: where a cache's bytes actually go (Figure 7)."""

from repro.memory.accounting import (
    UsageBreakdown,
    breakdown_memcached,
    breakdown_zzone,
    fill_memcached,
    fill_zzone,
)

__all__ = [
    "UsageBreakdown",
    "breakdown_memcached",
    "breakdown_zzone",
    "fill_memcached",
    "fill_zzone",
]
