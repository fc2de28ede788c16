"""Batched reads: ``get_many`` must be a pure batching of ``get``.

The contract under test: for any key multiset — duplicates, misses,
keys staged in the append region, keys in quarantined blocks — ``get_many`` returns exactly what a sequential ``get`` loop
would, and leaves *every* counter (cache stats, Z-zone stats, trie
lookup/probe counts) in exactly the state the loop would, except the
three batch-usage counters (``get_many_batches``, ``batched_keys``,
``container_decodes_saved``).  The batch path is allowed to *save
physical work* — never to change observable behavior.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.common.clock import VirtualClock
from repro.common.hashing import hash_key
from repro.compression import ZlibCompressor
from repro.compression.base import Compressed
from repro.core.config import ZExpanderConfig
from repro.core.sharded import ShardedZExpander
from repro.core.zexpander import ZExpander
from repro.faults import FaultPlan, FaultSpec
from repro.metrics import MetricsRegistry
from repro.zzone import ZZone

#: Stats fields that only the batch path advances, by design.
BATCH_ONLY_CACHE = {"get_many_batches", "batched_keys"}
BATCH_ONLY_ZZONE = {"container_decodes_saved"}

#: The fastpath-knob grid the parity property runs over.
KNOBS = (
    {},
    {"append_region_bytes": 512, "decompressed_cache_blocks": 2},
    {"decompressed_cache_blocks": 1},
    {"use_content_filter": False},
)


def _twin_caches(knobs):
    """Two independent but identically configured/seeded caches."""
    pair = []
    for _ in range(2):
        clock = VirtualClock()
        pair.append(
            ZExpander(
                ZExpanderConfig(
                    total_capacity=96 * 1024,
                    nzone_fraction=0.2,
                    adaptive=False,
                    seed=11,
                    **knobs,
                ),
                clock=clock,
            )
        )
    return pair


def _key(key_id: int) -> bytes:
    return b"gm:%04d" % key_id


def _value(key_id: int, rep: int) -> bytes:
    return (b"val:%04d:" % key_id) * rep


def _apply(cache, ops) -> None:
    for op in ops:
        name = op[0]
        if name == "set":
            cache.set(_key(op[1]), _value(op[1], op[2]))
        elif name == "setbig":
            # Likely oversized for a block: exercises large-ref routing
            # (and the batch path's no-deferral rule for such blocks).
            cache.set(_key(op[1]), _value(op[1], 400))
        elif name == "del":
            cache.delete(_key(op[1]))
        elif name == "tick":
            cache.clock.advance(op[1] / 100.0)


def _mirror_corrupt(caches) -> None:
    """Flip the same payload byte of the same block in both caches.

    The twins are deterministic, so leaf iteration order matches; the
    first occupied leaf in one is the first occupied leaf in the other.
    """
    for cache in caches:
        leaf = next(
            (b for b in cache.zzone._trie.leaves() if b.compressed is not None),
            None,
        )
        if leaf is None:
            return
    for cache in caches:
        leaf = next(
            b for b in cache.zzone._trie.leaves() if b.compressed is not None
        )
        payload = bytearray(leaf.compressed.payload)
        payload[len(payload) // 2] ^= 0xFF
        leaf.compressed = Compressed(
            payload=bytes(payload), stored_size=leaf.compressed.stored_size
        )


def _fingerprint(cache):
    core = {
        name: value
        for name, value in vars(cache.stats).items()
        if name not in BATCH_ONLY_CACHE
    }
    zzone = {
        name: value
        for name, value in vars(cache.zzone.stats).items()
        if name not in BATCH_ONLY_ZZONE
    }
    trie = (cache.zzone._trie.lookup_count, cache.zzone._trie.probe_count)
    return core, zzone, trie


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.integers(0, 79), st.integers(1, 24)),
        st.tuples(st.just("setbig"), st.integers(0, 79)),
        st.tuples(st.just("del"), st.integers(0, 79)),
        st.tuples(st.just("tick"), st.integers(1, 40)),
    ),
    min_size=10,
    max_size=120,
)
# Ids 80..99 are never written: guaranteed misses in the batch.
BATCH_IDS = st.lists(st.integers(0, 99), min_size=1, max_size=24)


class TestGetManyProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        ops=OPS,
        batch_ids=BATCH_IDS,
        knobs=st.sampled_from(KNOBS),
        corrupt=st.booleans(),
    )
    def test_matches_sequential_loop(self, ops, batch_ids, knobs, corrupt):
        batched, sequential = _twin_caches(knobs)
        _apply(batched, ops)
        _apply(sequential, ops)
        if corrupt:
            _mirror_corrupt((batched, sequential))
        keys = [_key(key_id) for key_id in batch_ids]
        batch_results = batched.get_many(keys)
        loop_results = [sequential.get(key) for key in keys]
        assert batch_results == loop_results
        assert _fingerprint(batched) == _fingerprint(sequential)
        assert batched.stats.get_many_batches == 1
        assert batched.stats.batched_keys == len(keys)
        # Post-state parity: a sequential pass over the same keys on
        # *both* caches must still agree — the batch left promotion,
        # container-cache, and recent-access state exactly where the
        # loop did.
        follow_batched = [batched.get(key) for key in keys]
        follow_sequential = [sequential.get(key) for key in keys]
        assert follow_batched == follow_sequential
        assert _fingerprint(batched) == _fingerprint(sequential)


class TestGetManyZZone:
    """Zone-level parity: staged entries, quarantine, shared decodes."""

    @staticmethod
    def _get_batched(zone, keyed):
        """The batched read as ``ZExpander.get_many`` drives the zone."""
        batch = zone.read_batch()
        return [zone.get_batched(name, hashed, batch) for name, hashed in keyed]

    def _twin_zones(self, **kwargs):
        pair = []
        for _ in range(2):
            defaults = dict(
                capacity=1 << 20,
                compressor=ZlibCompressor(),
                block_capacity=512,
                clock=VirtualClock(),
                seed=3,
            )
            defaults.update(kwargs)
            pair.append(ZZone(**defaults))
        return pair

    def _fill(self, zone, count=60):
        for i in range(count):
            zone.put(b"zk%03d" % i, bytes([i % 251]) * 48)

    def _zone_fingerprint(self, zone):
        stats = {
            name: value
            for name, value in vars(zone.stats).items()
            if name not in BATCH_ONLY_ZZONE
        }
        return stats, zone._trie.lookup_count, zone._trie.probe_count

    def test_staged_and_container_keys_match(self):
        batched, sequential = self._twin_zones(
            append_region_bytes=1024, decompressed_cache_blocks=2
        )
        for zone in (batched, sequential):
            self._fill(zone)
            # Staged writes land in append regions, not containers.
            for i in range(8):
                zone.put(b"staged%02d" % i, b"S" * 30)
        names = (
            [b"zk%03d" % (i % 60) for i in range(40)]
            + [b"staged%02d" % (i % 8) for i in range(8)]
            + [b"absent%02d" % i for i in range(6)]
            + [b"zk000", b"zk000"]  # duplicates
        )
        keyed = [(name, hash_key(name)) for name in names]
        assert self._get_batched(batched, keyed) == [
            sequential.get(name, hashed) for name, hashed in keyed
        ]
        assert self._zone_fingerprint(batched) == self._zone_fingerprint(
            sequential
        )
        # Shared physical decodes actually happened.
        assert batched.stats.container_decodes_saved > 0

    def test_quarantined_block_keys_match(self):
        batched, sequential = self._twin_zones()
        for zone in (batched, sequential):
            self._fill(zone)
            leaf = next(
                b for b in zone._trie.leaves() if b.compressed is not None
            )
            payload = bytearray(leaf.compressed.payload)
            payload[-1] ^= 0xFF
            leaf.compressed = Compressed(
                payload=bytes(payload),
                stored_size=leaf.compressed.stored_size,
            )
        names = [b"zk%03d" % (i % 60) for i in range(60)]
        keyed = [(name, hash_key(name)) for name in names]
        assert self._get_batched(batched, keyed) == [
            sequential.get(name, hashed) for name, hashed in keyed
        ]
        assert self._zone_fingerprint(batched) == self._zone_fingerprint(
            sequential
        )
        assert batched.stats.quarantined_blocks > 0

    def test_fault_injector_falls_back_to_sequential(self):
        plan = FaultPlan(seed=5, specs=(FaultSpec(site="block.bitflip", rate=0.0),))
        cache = ZExpander(
            ZExpanderConfig(
                total_capacity=96 * 1024,
                nzone_fraction=0.2,
                adaptive=False,
                seed=11,
                fault_plan=plan,
            ),
            clock=VirtualClock(),
        )
        assert cache.zzone.read_batch() is None
        for i in range(80):
            cache.set(_key(i), _value(i, 8))
        keys = [_key(i) for i in range(80)]
        results = cache.get_many(keys)
        assert results == [cache.get(key) for key in keys]
        # Armed faults disable decode sharing entirely (framing must not
        # change chaos-run behavior).
        assert cache.zzone.stats.container_decodes_saved == 0
        assert cache.stats.get_many_batches == 1


class TestGetManySharded:
    def test_partitions_by_shard_and_preserves_order(self):
        fleet = ShardedZExpander(
            ZExpanderConfig(total_capacity=256 * 1024, seed=7, adaptive=False),
            num_shards=3,
        )
        for i in range(50):
            fleet.set(_key(i), _value(i, 4))
        keys = [_key(i % 60) for i in range(0, 120, 7)]  # dupes + misses
        assert fleet.get_many(keys) == [fleet.get(key) for key in keys]
        registry = MetricsRegistry()
        fleet.bind_metrics(registry)
        totals = registry.snapshot()
        # Each involved shard counted its group as one batch.
        assert 1 <= totals["cache_get_many_batches"] <= fleet.num_shards
        assert totals["cache_batched_keys"] == len(keys)

    def test_empty_batch(self):
        fleet = ShardedZExpander(
            ZExpanderConfig(total_capacity=64 * 1024, seed=7), num_shards=2
        )
        assert fleet.get_many([]) == []
