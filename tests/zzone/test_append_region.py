"""Property and behaviour tests for the Z-zone write-combining append
region."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.clock import VirtualClock
from repro.common.hashing import hash_key
from repro.compression import ZlibCompressor
from repro.zzone import ZZone


def _zone(capacity=1 << 20, append=256, seed=3):
    return ZZone(
        capacity,
        compressor=ZlibCompressor(),
        block_capacity=256,
        clock=VirtualClock(),
        seed=seed,
        append_region_bytes=append,
    )


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["put", "get", "delete", "sweep"]),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=90),
    ),
    min_size=1,
    max_size=120,
)


class TestOracleAgreement:
    @staticmethod
    def _value_of(result):
        return None if result is None else result[0]

    @given(ops=_OPS)
    @settings(max_examples=30, deadline=None)
    def test_fastpath_agrees_with_flush_every_time_oracle(self, ops):
        """Without eviction pressure, the zone is exactly a dict.

        The oracle is a plain ``dict`` — independent of the zone's code,
        which a region-0 zone no longer is: that configuration is the
        same staged put path with a region nothing ever fits.  Ample
        capacity keeps eviction out of the picture, so every GET value
        and every delete result must agree exactly, for the
        merge-on-every-put zone (region 0) and the staging one alike.

        ``item_count`` is compared only after a forced merge: it
        double-counts a staged key whose stale copy still sits in the
        container (both copies are charged and counted until the merge
        reconciles them).
        """
        for append in (0, 256):
            zone = _zone(append=append)
            oracle = {}
            for op, key_id, size in ops:
                key = b"a%03d" % key_id
                if op == "put":
                    value = bytes([(key_id + size) % 251]) * size
                    zone.put(key, value)
                    oracle[key] = value
                elif op == "delete":
                    assert zone.delete(key) == (oracle.pop(key, None) is not None)
                else:  # get and sweep both read; sweep isn't reachable
                    # without pressure, so it degrades to a read here.
                    assert self._value_of(zone.get(key)) == oracle.get(key)
            for leaf in list(zone._trie.leaves()):
                assert zone._merge(leaf)
            for key_id in range(41):
                key = b"a%03d" % key_id
                assert self._value_of(zone.get(key)) == oracle.get(key)
            assert zone.item_count == len(oracle)
            zone.check_invariants()

    @given(ops=_OPS, capacity_kb=st.integers(min_value=8, max_value=24))
    @settings(max_examples=30, deadline=None)
    def test_churn_under_pressure_never_serves_stale_bytes(
        self, ops, capacity_kb
    ):
        """Under real eviction pressure, GETs return the latest value or miss.

        Sweeps rebuild blocks while entries sit staged, deletes unindex
        staged copies, and flushes merge stale container shadows — none of
        which may ever surface an overwritten or deleted value.
        """
        zone = _zone(capacity=capacity_kb * 1024, append=256)
        latest = {}
        for op, key_id, size in ops:
            zone.clock.advance(0.01)
            key = b"p%03d" % key_id
            if op == "put":
                value = bytes([(key_id * 7 + size) % 251]) * size
                zone.put(key, value)
                latest[key] = value
            elif op == "delete":
                zone.delete(key)
                latest.pop(key, None)
            elif op == "sweep":
                zone.resize(max(4096, (capacity_kb * 1024) // (1 + size % 4)))
            else:
                result = zone.get(key)
                if key in latest:
                    assert result is None or result[0] == latest[key]
                else:
                    assert result is None
        for key, value in latest.items():
            result = zone.get(key)
            assert result is None or result[0] == value
        zone.check_invariants()


class TestStagedFlush:
    def test_flush_merges_staging_and_preserves_crc(self):
        zone = _zone(append=512)
        values = {}
        for i in range(4):
            key = b"flush%02d" % i
            values[key] = b"v" * (10 + i)
            zone.put(key, values[key])
        staged_leaves = [
            leaf for leaf in zone._trie.leaves() if leaf.staged_index
        ]
        assert staged_leaves, "puts this small must stage, not merge"
        assert zone.stats.staged_puts == 4
        for leaf in list(staged_leaves):
            assert leaf.staged_checksum_ok()
            assert zone._merge(leaf)
            replacement = zone._trie.get_leaf(leaf.depth, leaf.prefix)
            assert not replacement.staged_index
            assert replacement.staged_bytes == 0
            assert replacement.checksum_ok()
        assert zone.stats.staging_flushes == len(staged_leaves)
        for key, value in values.items():
            result = zone.get(key)
            assert result is not None and result[0] == value
        zone.check_invariants()

    def test_region_fill_triggers_merge(self):
        zone = _zone(append=128)
        for i in range(12):
            zone.put(b"fill%02d" % i, b"x" * 40)
        assert zone.stats.staging_flushes > 0
        for i in range(12):
            result = zone.get(b"fill%02d" % i)
            assert result is not None and result[0] == b"x" * 40
        zone.check_invariants()

    def test_memory_usage_reports_staged_items(self):
        zone = _zone(append=512)
        for i in range(5):
            zone.put(b"mu%02d" % i, b"u" * 30)
        usage = zone.memory_usage()
        assert usage["staged_items"] > 0


class TestStagedCorruption:
    @given(data=st.data())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_any_single_bit_flip_in_staged_bytes_is_detected(self, data):
        """No single-bit staged corruption ever reaches a GET.

        The append region carries an incrementally extended CRC32 over its
        raw bytes, so whichever staged bit flips, a GET of any key returns
        the true value or a miss — never wrong bytes — and the block is
        quarantined with exactly one staged-checksum failure.
        """
        zone = _zone(append=512)
        expected = {}
        for i in range(20):
            key = b"sbit%03d" % i
            value = bytes([(i * 41) % 251]) * (12 + (i * 11) % 40)
            zone.put(key, value)
            expected[key] = value
        staged = [leaf for leaf in zone._trie.leaves() if leaf.staged_index]
        assert staged, "puts this small must stage, not merge"
        leaf = data.draw(st.sampled_from(staged))
        bit = data.draw(
            st.integers(min_value=0, max_value=len(leaf.staged_buffer) * 8 - 1)
        )
        leaf.staged_buffer[bit // 8] ^= 1 << (bit % 8)
        assert not leaf.staged_checksum_ok()
        for key, value in expected.items():
            result = zone.get(key, hash_key(key))
            assert result is None or result[0] == value
        assert zone.stats.staged_checksum_failures == 1
        assert zone.stats.quarantined_blocks == 1
        zone.check_invariants()


class TestFilterNegativeGets:
    def test_guaranteed_misses_never_touch_the_codec(self):
        """Bloom-negative GETs cost zero compressions/decompressions."""
        zone = _zone(append=0)
        for i in range(200):
            zone.put(b"res%04d" % i, b"r" * 48)
        absent = [
            key
            for key in (b"ghost%05d" % i for i in range(3000))
            if not zone.maybe_contains(key)
        ]
        assert len(absent) >= 500
        before_expensive = zone.stats.expensive_ops
        before_skips = zone.stats.filter_skips
        for key in absent:
            assert zone.get(key) is None
        assert zone.stats.expensive_ops == before_expensive
        assert zone.stats.filter_skips == before_skips + len(absent)

    def test_guaranteed_misses_skip_staging(self):
        zone = _zone(append=512)
        for i in range(200):
            zone.put(b"res%04d" % i, b"r" * 48)
        absent = [
            key
            for key in (b"ghost%05d" % i for i in range(3000))
            if not zone.maybe_contains(key)
        ]
        assert len(absent) >= 500
        before_expensive = zone.stats.expensive_ops
        for key in absent:
            assert zone.get(key) is None
        assert zone.stats.expensive_ops == before_expensive

