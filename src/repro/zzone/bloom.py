"""16-byte Bloom filters (the paper's Content Filter and Access Filter).

Sized per §3.2: a block holds roughly 20 small items, and a 128-bit filter
with 4 probes keeps the false-positive ratio around the paper's observed
~5 % at that load.

Probes are derived from the item's 64-bit placement hash by double hashing
(Kirsch & Mitzenmacher), so no extra hashing of the key bytes is needed on
the hot path.
"""

from __future__ import annotations

SIZE_BYTES = 16
_BITS = SIZE_BYTES * 8
_NUM_PROBES = 4


def _double_hash_mask(h1: int, h2: int) -> int:
    """OR-mask of the probe bits ``(h1 + i * h2) % _BITS``, i < 4."""
    mask = 0
    for i in range(_NUM_PROBES):
        mask |= 1 << ((h1 + i * h2) % _BITS)
    return mask


#: Every probe mask there is, as ``PROBE_MASKS[h1 % 128][(h2 % 128) // 2]``.
#: ``h1`` is the hash's low 32 bits and ``h2`` its high 32 bits forced
#: odd; since 128 divides 2**32, the probe bits depend only on the hash's
#: bits 0-6 and 33-38, so 128 x 64 masks cover every hash.  Built once
#: at import, it does not grow with the number of keys.  A block keeps
#: its two filters as bare ints and indexes this table inline: a helper
#: call would cost as much again.
PROBE_MASKS = tuple(
    tuple(_double_hash_mask(low, (odd << 1) | 1) for odd in range(_BITS // 2))
    for low in range(_BITS)
)

