"""A glibc-malloc chunk-overhead model.

The Z-zone allocates whole blocks through the general-purpose allocator
(§3.2: "zExpander relies on the general-purpose memory allocator ...
there is no internal fragmentation in the zone.  Meanwhile, because the
allocation size (a block) is large, space efficiency is less of a
concern").  This model quantifies that claim: glibc's ptmalloc charges a
size header per chunk and rounds requests to 16-byte alignment, so the
per-allocation waste is bounded and *relatively* tiny for 1–2 KB blocks
while it would be enormous for 100 B items.
"""

from __future__ import annotations

#: ptmalloc's per-chunk size header.
HEADER_BYTES = 8
#: Chunks are rounded up to this many bytes.
ALIGNMENT = 16
#: The smallest chunk ptmalloc hands out.
MIN_CHUNK = 32


def chunk_size(request: int) -> int:
    """Bytes actually consumed by an allocation of ``request`` bytes."""
    if request < 0:
        raise ValueError(f"request must be >= 0, got {request}")
    needed = request + HEADER_BYTES
    rounded = (needed + ALIGNMENT - 1) & ~(ALIGNMENT - 1)
    return max(MIN_CHUNK, rounded)


def overhead(request: int) -> int:
    """Waste (header + rounding) for one allocation."""
    return chunk_size(request) - request
