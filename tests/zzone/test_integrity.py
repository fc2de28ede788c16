"""Z-zone integrity: checksums, quarantine, fallback, rollback."""

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import CodecError, ItemTooLargeError
from repro.common.hashing import hash_key
from repro.compression import NullCompressor, ZlibCompressor
from repro.compression.base import Compressed, Compressor
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.faults.codec import FaultyCompressor
from repro.zzone import ZZone
from repro.zzone.zzone import CODEC_FAULT_TOLERANCE

from tests.zzone.blocks import build_block


def _zone(**kwargs):
    defaults = dict(
        capacity=1 << 20,
        compressor=ZlibCompressor(),
        block_capacity=512,
        clock=VirtualClock(),
    )
    defaults.update(kwargs)
    return ZZone(**defaults)


def _fill(zone, count=20, size=40):
    expected = {}
    for i in range(count):
        key = b"key%03d" % i
        value = bytes([i % 251]) * size
        zone.put(key, value)
        expected[key] = value
    return expected


def _corrupt(block, position=-1):
    """Flip one byte of a block/large-item payload in place."""
    payload = bytearray(block.compressed.payload)
    payload[position] ^= 0xFF
    block.compressed = Compressed(
        payload=bytes(payload), stored_size=block.compressed.stored_size
    )


class TestBlockChecksum:
    def test_fresh_block_verifies(self):
        block = build_block([], ZlibCompressor())
        assert block.checksum_ok()

    def test_corrupt_block_fails_verification(self):
        zone = _zone()
        _fill(zone)
        leaf = next(b for b in zone._trie.leaves() if b.item_count > 0)
        _corrupt(leaf)
        assert not leaf.checksum_ok()


class TestQuarantine:
    def test_get_on_corrupt_block_misses_and_quarantines(self):
        zone = _zone()
        expected = _fill(zone)
        leaf = next(b for b in zone._trie.leaves() if b.item_count > 0)
        lost = leaf.item_count
        _corrupt(leaf)
        hits = misses = 0
        for key, value in expected.items():
            result = zone.get(key, hash_key(key))
            if result is None:
                misses += 1
            else:
                assert result[0] == value  # never wrong bytes
                hits += 1
        assert misses >= lost > 0
        assert zone.stats.checksum_failures == 1
        assert zone.stats.quarantined_blocks == 1
        assert zone.stats.quarantined_items == lost
        zone.check_invariants()

    def test_zone_stays_writable_after_quarantine(self):
        zone = _zone()
        _fill(zone)
        leaf = next(b for b in zone._trie.leaves() if b.item_count > 0)
        _corrupt(leaf)
        zone.get(b"key000", hash_key(b"key000"))  # trigger quarantine
        zone.put(b"fresh", b"new value bytes")
        assert zone.get(b"fresh", hash_key(b"fresh"))[0] == b"new value bytes"
        zone.check_invariants()

    def test_put_into_corrupt_block_recovers(self):
        zone = _zone()
        _fill(zone)
        victim_key = b"key000"
        leaf = zone._trie.find_leaf(hash_key(victim_key))
        assert leaf.item_count > 0
        _corrupt(leaf)
        zone.put(victim_key, b"replacement value")
        assert zone.get(victim_key, hash_key(victim_key))[0] == b"replacement value"
        assert zone.stats.quarantined_blocks >= 1
        zone.check_invariants()

    def test_sweep_over_corrupt_block_frees_it(self):
        zone = _zone(capacity=64 * 1024)
        _fill(zone, count=200, size=100)
        damaged = next(b for b in zone._trie.leaves() if b.item_count > 0)
        _corrupt(damaged)
        used_before = zone.used_bytes
        zone.resize(used_before // 2)  # force sweeping through the ring
        assert zone.used_bytes <= zone.capacity
        zone.check_invariants()

    def test_codec_exception_quarantines_whole_block(self):
        # The payload stays intact (its CRC passes); from request 1 on the
        # codec that built the blocks raises on every decompress.
        plan = FaultPlan(
            specs=[FaultSpec(site="codec.decompress", rate=1.0, start=1)]
        )
        injector = FaultInjector(plan)
        zone = _zone(compressor=FaultyCompressor(ZlibCompressor(), injector))
        _fill(zone)
        leaf = zone._trie.find_leaf(hash_key(b"key000"))
        assert leaf.item_count > 0
        injector.on_request(1)
        assert zone.get(b"key000", hash_key(b"key000")) is None
        assert zone.stats.checksum_failures == 0  # detection was the codec's
        assert zone.stats.codec_failures >= 1
        assert zone.stats.quarantined_blocks == 1
        zone.check_invariants()

    def test_corrupt_large_item_is_dropped_alone(self):
        zone = _zone()
        big = b"B" * 400  # > block_capacity // 2 -> stored as a large item
        zone.put(b"big", big)
        zone.put(b"small", b"s" * 20)
        leaf = next(b for b in zone._trie.leaves() if b.large_refs)
        _corrupt(leaf.large_refs[b"big"])
        assert zone.get(b"big", hash_key(b"big")) is None
        assert zone.stats.checksum_failures == 1
        assert zone.stats.quarantined_items == 1
        assert zone.stats.quarantined_blocks == 0  # block itself intact
        assert zone.get(b"small", hash_key(b"small"))[0] == b"s" * 20
        zone.check_invariants()

    def test_items_iteration_skips_damage(self):
        zone = _zone()
        expected = _fill(zone)
        leaf = next(b for b in zone._trie.leaves() if b.item_count > 0)
        _corrupt(leaf)
        listed = dict(zone.items())
        for key, value in listed.items():
            assert expected[key] == value
        assert len(listed) < len(expected)
        zone.check_invariants()


class _FlakyCompressor(Compressor):
    """Raises CodecError on compress until its fuse runs out."""

    def __init__(self, inner, failures):
        self.inner = inner
        self.name = inner.name
        self.failures = failures

    def compress(self, data):
        if self.failures > 0:
            self.failures -= 1
            raise CodecError("injected: compressor on fire")
        return self.inner.compress(data)

    def decompress(self, compressed):
        return self.inner.decompress(compressed)


class TestCodecFallback:
    def test_repeated_codec_faults_advance_the_chain(self):
        zone = _zone(compressor=_FlakyCompressor(ZlibCompressor(), 10**6))
        # Even the root build must have degraded to the null codec.
        assert isinstance(zone.compressor, NullCompressor)
        assert zone.stats.codec_fallbacks == 1
        assert zone.stats.codec_failures >= CODEC_FAULT_TOLERANCE
        zone.put(b"key", b"value")
        assert zone.get(b"key", hash_key(b"key"))[0] == b"value"
        zone.check_invariants()

    def test_transient_faults_do_not_degrade(self):
        zone = _zone()
        zone.compressor = _FlakyCompressor(
            zone.compressor, CODEC_FAULT_TOLERANCE - 1
        )
        zone._fallbacks = zone._fallback_chain()
        zone.put(b"key", b"value" * 8)
        assert zone.stats.codec_fallbacks == 0  # strikes reset on success
        assert zone.get(b"key", hash_key(b"key"))[0] == b"value" * 8

    def test_old_blocks_survive_a_codec_switch(self):
        zone = _zone()
        expected = _fill(zone)
        zone.compressor = NullCompressor()  # simulate a completed fallback
        for key, value in expected.items():
            result = zone.get(key, hash_key(key))
            assert result is not None and result[0] == value


class TestEmergencyPressure:
    def test_severe_squeeze_triggers_emergency_sweep(self):
        zone = _zone(capacity=256 * 1024)
        _fill(zone, count=600, size=120)
        used = zone.used_bytes
        zone.resize(max(4096, used // 3))
        assert zone.stats.emergency_sweeps >= 1
        assert zone.used_bytes <= zone.capacity
        zone.check_invariants()


class _ExplodingCompressor(Compressor):
    """Raises ItemTooLargeError (a CacheError) mid-reconstruction when armed."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.armed = False

    def compress(self, data):
        if self.armed:
            raise ItemTooLargeError(b"mid-build", len(data), 0)
        return self.inner.compress(data)

    def decompress(self, compressed):
        return self.inner.decompress(compressed)


class TestPutRollback:
    """Satellite: a SET failing mid-reconstruction changes nothing."""

    def _snapshot(self, zone):
        ring = []
        node = zone._hand
        while True:
            ring.append(id(node))
            node = node.next_block
            if node is zone._hand:
                break
        return (
            zone.used_bytes,
            zone.item_count,
            tuple(ring),
            dict(zone._pending_removals),
            zone.stats.pending_removals_merged,
        )

    def test_compact_put_failure_rolls_back(self):
        zone = _zone(compressor=_ExplodingCompressor(ZlibCompressor()))
        _fill(zone)
        key = b"key000"
        zone.schedule_removal(key, hash_key(key), not_before=10.0)
        assert key in zone._pending_removals
        before = self._snapshot(zone)
        zone.compressor.armed = True
        with pytest.raises(ItemTooLargeError):
            zone.put(key, b"never lands")
        zone.compressor.armed = False
        assert self._snapshot(zone) == before
        zone.check_invariants()

    def test_large_put_failure_rolls_back(self):
        zone = _zone(compressor=_ExplodingCompressor(ZlibCompressor()))
        _fill(zone)
        before = self._snapshot(zone)
        zone.compressor.armed = True
        with pytest.raises(ItemTooLargeError):
            zone.put(b"huge", b"H" * 400)
        zone.compressor.armed = False
        assert self._snapshot(zone) == before
        zone.check_invariants()

    def test_oversized_item_rejected_upfront_without_side_effects(self):
        zone = _zone(capacity=16 * 1024)
        _fill(zone, count=5)
        before = self._snapshot(zone)
        with pytest.raises(ItemTooLargeError):
            zone.put(b"colossal", b"X" * (zone.capacity + 1))
        assert self._snapshot(zone) == before
        zone.check_invariants()
