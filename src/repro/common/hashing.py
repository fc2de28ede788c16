"""Key hashing used across the cache.

The paper hashes keys (it cites MurmurHash) before placing them in the
Z-zone trie so every block receives items with equal probability and the
trie stays balanced.  Any uniform 64-bit hash preserves that behaviour;
:func:`hash_key` uses the C-implemented BLAKE2b (stdlib, stable across
platforms and interpreter runs) because a pure-Python MurmurHash costs
~10 µs per key — enough to dominate replay time.

BLAKE2b is imported from ``_blake2``, the module :mod:`hashlib` itself
takes it from, so ``blake2b is hashlib.blake2b`` and every hash is
bit-identical.  Importing :mod:`hashlib` would also import ``_hashlib``,
which maps OpenSSL's ``libcrypto`` into every served process (with
``ssl`` kept out by the CLI entry, ≈ 4 MiB of resident memory) for a
function OpenSSL does not provide.

A separate FNV-1a hash is provided for seed derivation and cuckoo bucket
mixing, where inputs are tiny.
"""

from __future__ import annotations

from _blake2 import blake2b

_MASK64 = 0xFFFFFFFFFFFFFFFF


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
