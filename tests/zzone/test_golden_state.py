"""Golden-state pin for the Z-zone's read and write paths.

One seeded ~5,000-op sequence of put / get / ``get_batched`` / delete /
``schedule_removal`` / ``resize`` is run against two configurations and
everything observable afterwards — every leaf's position, compressed
payload, staged bytes and large-ref keys, every stats counter, the byte
and item accounting, the trie's lookup telemetry, and every result the
operations returned along the way — is folded into one SHA-256.

The ``region0_cache0`` digest was computed at the commit *before* the
read path became one resolver and the small-item write path one merge,
and is the paper's write path: nothing may move it.  ``region512`` is
the write-combining path (a rebuild of a block drops the copies whose
removal is pending, instead of leaving each to its own deadline and its
own rebuild), taken with no decoded-container cache in front of the
zone; it is retaken only when that path changes on purpose.  A refactor
of ``repro.zzone`` that claims to preserve behaviour must leave both
unchanged.  The codec is the repo's pure-Python LZ4, so
payload bytes do not depend on the platform's zlib build.  It takes
seconds, where regenerating the committed experiment results takes
minutes.
"""

import hashlib
import random

import pytest

from repro.common.clock import VirtualClock
from repro.common.hashing import hash_key
from repro.compression import LZ4Compressor
from repro.zzone import ZZone

OPS = 5000
KEYS = 1200

GOLDEN = {
    "region0_cache0": (
        {},
        "cb988b54af238a6f728aa3856c6a2652b8e42c1890e8256449268051fb0d49a4",
    ),
    "region512": (
        {"append_region_bytes": 512},
        "5aa8826f50538619ed054af5c5c99f832c2cde59008b5d53024f92fd76f9bbaf",
    ),
}


def _key(key_id: int) -> bytes:
    return b"golden:%05d" % key_id


def _key_id(rng: random.Random) -> int:
    """A quarter of the keys takes ~70 % of the traffic, so GETs mostly hit."""
    return rng.randrange(KEYS // 4) if rng.random() < 0.6 else rng.randrange(KEYS)


def _value(rng: random.Random) -> bytes:
    """Mostly small compressible values; ~4 % large items (> half a block)."""
    size = rng.randrange(300, 700) if rng.random() < 0.04 else rng.randrange(1, 90)
    word = b"%04d" % rng.randrange(40)
    return (word * (size // 4 + 1))[:size]


def run_sequence(knobs) -> str:
    rng = random.Random(20260928)
    clock = VirtualClock()
    zone = ZZone(
        32 * 1024,
        compressor=LZ4Compressor(),
        block_capacity=512,
        clock=clock,
        seed=5,
        **knobs,
    )
    digest = hashlib.sha256()

    def note(*parts) -> None:
        digest.update(repr(parts).encode())

    for step in range(OPS):
        clock.advance(rng.random() * 0.05)
        draw = rng.random()
        key = _key(_key_id(rng))
        if draw < 0.45:
            zone.put(key, _value(rng))
        elif draw < 0.70:
            note(step, zone.get(key))
        elif draw < 0.85:
            batch = zone.read_batch()
            # Neighbouring ids plus a repeat: several keys per block, and
            # the same key twice in one batch.
            first = _key_id(rng)
            ids = [first, first + 1, _key_id(rng), first, first + 2]
            for key_id in ids:
                key = _key(key_id % KEYS)
                note(step, zone.get_batched(key, hash_key(key), batch))
        elif draw < 0.94:
            note(step, zone.delete(key))
        elif draw < 0.98:
            zone.schedule_removal(key, hash_key(key), clock.now() + rng.random())
        else:
            zone.resize(rng.choice((16, 24, 32, 48)) * 1024)
    zone.check_invariants()

    leaves = sorted(zone._trie.leaves(), key=lambda leaf: (leaf.depth, leaf.prefix))
    for leaf in leaves:
        note(
            leaf.depth,
            leaf.prefix,
            leaf.compressed.payload,
            bytes(leaf.staged_buffer),
            sorted(leaf.large_refs),
        )
    # Both digests were taken while ``ZZoneStats`` still had a
    # ``container_cache_misses`` field; with no decoded-container cache
    # it was always 0, so it is folded in at that value.
    note(sorted({**vars(zone.stats), "container_cache_misses": 0}.items()))
    note(zone.used_bytes, zone.item_count)
    note(zone._trie.lookup_count, zone._trie.probe_count)
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_final_state_matches_the_pre_refactor_digest(name):
    knobs, expected = GOLDEN[name]
    assert run_sequence(knobs) == expected
