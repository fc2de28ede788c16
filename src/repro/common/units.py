"""Byte-size units and human-readable formatting.

The paper expresses every capacity in binary units (2 KB blocks, 60 GB
caches); so does this reproduction.
"""

from __future__ import annotations

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


def format_bytes(num_bytes: int) -> str:
    """Format a byte count with the largest unit that keeps 3 digits."""
    if num_bytes < 0:
        raise ValueError("byte counts cannot be negative")
    if num_bytes >= GB:
        return f"{num_bytes / GB:.2f} GB"
    if num_bytes >= MB:
        return f"{num_bytes / MB:.2f} MB"
    if num_bytes >= KB:
        return f"{num_bytes / KB:.2f} KB"
    return f"{num_bytes} B"
