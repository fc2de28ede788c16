"""Shared low-level utilities used by every subsystem.

This package deliberately has no dependencies on the rest of :mod:`repro`,
so any module may import from it without creating cycles.
"""

from repro.common.errors import (
    CacheError,
    CapacityError,
    ConfigurationError,
    ItemTooLargeError,
)
from repro.common.hashing import fnv1a_64, hash_key
from repro.common.records import KVItem
from repro.common.units import GB, KB, MB, format_bytes

__all__ = [
    "CacheError",
    "CapacityError",
    "ConfigurationError",
    "ItemTooLargeError",
    "fnv1a_64",
    "hash_key",
    "KVItem",
    "GB",
    "KB",
    "MB",
    "format_bytes",
]
