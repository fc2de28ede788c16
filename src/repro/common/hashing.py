"""Key hashing used across the cache.

The paper hashes keys (it cites MurmurHash) before placing them in the
Z-zone trie so every block receives items with equal probability and the
trie stays balanced.  Any uniform 64-bit hash preserves that behaviour;
the hot-path :func:`hash_key` uses the C-implemented BLAKE2b (stdlib,
stable across platforms and interpreter runs) because a pure-Python
MurmurHash costs ~10 µs per key — enough to dominate replay time.  The
MurmurHash3 port is kept (and tested against reference vectors) as the
faithful-to-paper alternative: :func:`hash_key_murmur`.

A separate FNV-1a hash is provided for seed derivation and cuckoo bucket
mixing, where inputs are tiny.
"""

from __future__ import annotations

from hashlib import blake2b

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Seed of the second murmur round in :func:`hash_key`.  Any constant other
#: than 0 works; this one is the sample seed from the MurmurHash reference.
_SECOND_SEED = 0x9747B28C


def _rotl32(value: int, shift: int) -> int:
    value &= _MASK32
    return ((value << shift) | (value >> (32 - shift))) & _MASK32


def murmur3_32(data: bytes, seed: int = 0) -> int:
    """Return the 32-bit MurmurHash3 (x86) of ``data``.

    This is a straight port of Austin Appleby's reference implementation
    and matches it bit-for-bit, which keeps hashed-key placement stable
    across interpreter versions.
    """
    c1 = 0xCC9E2D51
    c2 = 0x1B873593
    h = seed & _MASK32
    length = len(data)
    rounded_end = length & ~0x3

    for offset in range(0, rounded_end, 4):
        k = int.from_bytes(data[offset : offset + 4], "little")
        k = (k * c1) & _MASK32
        k = _rotl32(k, 15)
        k = (k * c2) & _MASK32
        h ^= k
        h = _rotl32(h, 13)
        h = (h * 5 + 0xE6546B64) & _MASK32

    k = 0
    tail = length & 0x3
    if tail >= 3:
        k ^= data[rounded_end + 2] << 16
    if tail >= 2:
        k ^= data[rounded_end + 1] << 8
    if tail >= 1:
        k ^= data[rounded_end]
        k = (k * c1) & _MASK32
        k = _rotl32(k, 15)
        k = (k * c2) & _MASK32
        h ^= k

    h ^= length
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _MASK32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _MASK32
    h ^= h >> 16
    return h


#: Copying a configured hasher is cheaper than building one from keyword
#: arguments on every call (≈ 0.4 against 0.55 µs per key).
_BLAKE2B_64 = blake2b(digest_size=8)


def hash_key(key: bytes) -> int:
    """Return the 64-bit placement hash of ``key``.

    Trie placement consumes bits from the *top* of this value
    (most-significant first), mirroring the paper's use of a hashed-key
    binary prefix; shard choice and cuckoo buckets use the low bits.

    A BLAKE2b hash costs about half a microsecond, so a request hashes its
    key once at the top of the stack and hands the value down
    (``ShardedZExpander`` -> ``ZExpander`` -> N-zone index and Z-zone)
    rather than each layer recomputing it.  Nothing is memoised: a memo
    would hold a reference to every key it had seen.
    """
    hasher = _BLAKE2B_64.copy()
    hasher.update(key)
    return int.from_bytes(hasher.digest(), "big")


def hash_key_murmur(key: bytes) -> int:
    """64-bit placement hash from two seeded MurmurHash3 rounds.

    The paper's hash, usable as a drop-in for :func:`hash_key` when
    bit-level fidelity to MurmurHash matters more than speed.
    """
    high = murmur3_32(key, 0)
    low = murmur3_32(key, _SECOND_SEED)
    return ((high << 32) | low) & _MASK64


def fnv1a_64(data: bytes, seed: int = 0xCBF29CE484222325) -> int:
    """Return the 64-bit FNV-1a hash of ``data``.

    Used to derive Bloom-filter probe positions; independent of
    :func:`hash_key` by construction.
    """
    h = seed & _MASK64
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h
