"""Property tests: the item codec and its readers under arbitrary damage.

Two invariants, checked over generated inputs:

1. the record codec round-trips *any* key/value bytes, and
2. however a segment is damaged — truncated at any byte, or any single
   bit flipped — replay yields a strict prefix of the records written,
   never a record that was not written (no wrong bytes, ever).

A cache image (``--snapshot`` file, checkpoint, resync image) is a
segment too, so it is one more input to the same strategies, and each of
its three consumers is held to the same standard — including an image of
a cache that holds a key's older version in the Z-zone, shadowed by the
newest in the N-zone: damaged, it gives the newest value or a miss.  An
image is also sealed, so every damage short of the whole image is
reported, wherever it falls.
"""

import io
import os
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.common.errors import ReplicationError
from repro.common.framing import (
    FRAME_LEN,
    MAX_PAYLOAD,
    OP_DELETE,
    OP_SET,
    decode_payload,
    encode_record,
    read_segment,
)
from repro.durability.journal import JournalConfig, JournalWriter
from repro.durability.manager import (
    DurabilityConfig,
    DurabilityManager,
    checkpoint_name,
    replay_journal,
)
from repro.core import SimpleKVCache, ZExpander, ZExpanderConfig
from repro.core.snapshot import iter_cache_items, load_snapshot, write_snapshot
from tests.nzone.plain import PlainZone
from repro.replication.replica import ReplicationClient

keys = st.binary(min_size=1, max_size=64)
values = st.binary(min_size=0, max_size=256)


class TestCodecRoundtrip:
    @given(key=keys, value=values)
    def test_set_roundtrip(self, key, value):
        payload = encode_record(OP_SET, key, value)[4:-4]
        assert decode_payload(payload) == (OP_SET, key, value, 0)

    @given(key=keys)
    def test_delete_roundtrip(self, key):
        payload = encode_record(OP_DELETE, key)[4:-4]
        assert decode_payload(payload) == (OP_DELETE, key, b"", 0)

    @given(key=keys, value=values)
    def test_frame_length_matches_encoding(self, key, value):
        record = encode_record(OP_SET, key, value)
        payload_len = int.from_bytes(record[:4], "big")
        assert len(record) == 4 + payload_len + 4


def write_segment(directory, records):
    """One segment holding ``records``; returns its path."""
    config = JournalConfig(directory=directory, fsync="never")
    with JournalWriter(config) as writer:
        for key, value in records:
            writer.append_set(key, value)
        return writer.current_path


def make_cache():
    return SimpleKVCache(PlainZone(1 << 22))


SHADOWED = b"\x00shadowed"


def shadowing_cache():
    """A two-zone cache whose N-zone holds a few hundred bytes."""
    return ZExpander(
        ZExpanderConfig(
            total_capacity=16 * 1024,
            nzone_fraction=0.05,
            nzone_factory=PlainZone,
            adaptive=False,
            marker_interval_seconds=1e9,
            promotion_policy="never",
            append_region_bytes=0,
            seed=1,
        )
    )


def shadow(cache):
    """Leave ``SHADOWED`` in ``cache`` twice: its older value demoted to
    the Z-zone, its newest SET over it into the N-zone.  At region 0
    nothing rebuilds the block before the removal falls due, so the older
    copy stays resident."""
    cache.set(SHADOWED, b"older")
    filler = 0
    while SHADOWED in cache.nzone:
        cache.set(b"\x00filler%02d" % filler, b"f" * 24)
        filler += 1
    cache.set(SHADOWED, b"newest")
    assert cache.zzone.get(SHADOWED)[0] == b"older"


def write_image(directory, records, shadowed=False):
    """An image of a cache that was SET ``records`` (then, when
    ``shadowed``, given a shadowed key); returns its path and the items
    it holds, in file order."""
    cache = shadowing_cache() if shadowed else make_cache()
    for key, value in records:
        cache.set(key, value)
    if shadowed:
        shadow(cache)
    path = os.path.join(directory, "cache.snap")
    write_snapshot(cache, path)
    return path, list(iter_cache_items(cache))


def write_source(kind, directory, records):
    """A journal segment or a cache image: (path, the records it holds)."""
    if kind == "journal":
        return write_segment(directory, records), records
    return write_image(directory, records, shadowed=kind == "shadowed image")


records_strategy = st.lists(
    st.tuples(keys, values), min_size=1, max_size=8
)
kinds = st.sampled_from(("journal", "image", "shadowed image"))


class TestDamagedReplayNeverLies:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=kinds,
        records=records_strategy,
        cut=st.integers(min_value=0, max_value=10_000),
    )
    def test_truncation_yields_strict_prefix(self, tmp_path_factory, kind,
                                             records, cut):
        directory = str(tmp_path_factory.mktemp("trunc"))
        path, records = write_source(kind, directory, records)
        raw = Path(path).read_bytes()
        cut = min(cut, len(raw))
        Path(path).write_bytes(raw[:cut])

        replayed = []
        scan = read_segment(
            path, lambda op, k, v, _flags: replayed.append((k, v))
        )
        # Whatever survived is exactly the first N records written.
        assert replayed == records[: len(replayed)]
        if cut == len(raw):
            assert scan.clean
            assert len(replayed) == len(records)

    @settings(max_examples=40, deadline=None)
    @given(kind=kinds, records=records_strategy, data=st.data())
    def test_single_bit_flip_never_fabricates(self, tmp_path_factory, kind,
                                              records, data):
        directory = str(tmp_path_factory.mktemp("flip"))
        path, records = write_source(kind, directory, records)
        raw = bytearray(Path(path).read_bytes())
        position = data.draw(
            st.integers(min_value=0, max_value=len(raw) - 1), label="byte"
        )
        bit = data.draw(st.integers(min_value=0, max_value=7), label="bit")
        raw[position] ^= 1 << bit
        Path(path).write_bytes(bytes(raw))

        replayed = []
        read_segment(path, lambda op, k, v, _flags: replayed.append((k, v)))
        # A flip inside record i kills record i and everything after it
        # (replay stops at the first damage); records before it are
        # untouched.  In no case does a record we never wrote appear.
        assert replayed == records[: len(replayed)]

    @settings(max_examples=25, deadline=None)
    @given(records=records_strategy, data=st.data())
    def test_full_recovery_path_survives_bit_flips(self, tmp_path_factory,
                                                   records, data):
        """End-to-end replay_journal: damage is truncated or quarantined,
        and the recovered cache holds only values that were written."""
        directory = str(tmp_path_factory.mktemp("recover"))
        path = write_segment(directory, records)
        raw = bytearray(Path(path).read_bytes())
        position = data.draw(
            st.integers(min_value=0, max_value=len(raw) - 1), label="byte"
        )
        raw[position] ^= 1 << data.draw(
            st.integers(min_value=0, max_value=7), label="bit"
        )
        Path(path).write_bytes(bytes(raw))

        cache = SimpleKVCache(PlainZone(1 << 22))
        result = replay_journal(directory, cache)
        legal = {}
        for key, value in records:
            legal.setdefault(key, set()).add(value)
        seen = 0
        for key, value in cache.nzone.items():
            assert value in legal.get(key, set()), (key, value)
            seen += 1
        assert seen <= len(records)
        if not result.clean:
            # Damage was contained: segment truncated in place, or (magic
            # hit) quarantined — either way the directory is clean now.
            again = replay_journal(directory, SimpleKVCache(PlainZone(1 << 22)))
            assert again.clean


def damaged(raw, data):
    """``raw`` cut at a drawn byte, or with one drawn bit flipped."""
    if data.draw(st.booleans(), label="cut (else flip)"):
        return raw[: data.draw(st.integers(0, len(raw)), label="cut at")]
    flipped = bytearray(raw)
    position = data.draw(st.integers(0, len(raw) - 1), label="byte")
    flipped[position] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    return bytes(flipped)


#: One value per key, so "the original value or a miss" is decidable.
unique_records = st.lists(
    st.tuples(keys, values), min_size=2, max_size=8, unique_by=lambda r: r[0]
)


class _MeteredStream(io.BytesIO):
    """Records the size of every ``read`` asked of it."""

    def __init__(self, data):
        super().__init__(data)
        self.asked = []

    def read(self, size=-1):
        self.asked.append(size)
        return super().read(size)


class TestDamagedImageNeverLies:
    """Every truncation point and every single-bit flip of an image, through
    each of its three consumers: a key reads as the exact value written
    or as a miss, nothing raises, and the damage is reported."""

    @settings(max_examples=60, deadline=None)
    @given(records=unique_records, shadowed=st.booleans(), data=st.data())
    def test_load_snapshot(self, tmp_path_factory, records, shadowed, data):
        path, items = write_image(
            str(tmp_path_factory.mktemp("load")), records, shadowed
        )
        raw = Path(path).read_bytes()
        bad = damaged(raw, data)
        stream = _MeteredStream(bad)
        restored = make_cache()
        scan = load_snapshot(restored, stream)
        assert list(iter_cache_items(restored)) == items[: scan.records]
        assert dict(iter_cache_items(restored)).items() <= dict(items).items()
        assert scan.valid_bytes + scan.damaged_bytes == len(bad)
        # Only the whole image reads clean; a cut on a record boundary
        # leaves it unsealed, and that is reported too.
        assert scan.clean == (bad == raw)
        # Bounded buffering: a flipped length word is refused before it
        # is believed.
        assert max(stream.asked) <= MAX_PAYLOAD + FRAME_LEN.size

    @settings(max_examples=40, deadline=None)
    @given(records=unique_records, data=st.data())
    def test_checkpoint_recovery(self, tmp_path_factory, records, data):
        directory = str(tmp_path_factory.mktemp("ckpt"))
        manager = DurabilityManager(
            DurabilityConfig(directory=directory, fsync="never")
        )
        cache = make_cache()
        manager.recover_into(cache)
        manager.attach_to(cache)
        half = len(records) // 2
        try:
            for key, value in records[:half]:
                cache.set(key, value)
            first_seq = manager.checkpoint(cache)
            first = os.path.join(directory, checkpoint_name(first_seq))
            older = Path(first).read_bytes()
            for key, value in records[half:]:
                cache.set(key, value)
            second = checkpoint_name(manager.checkpoint(cache))
        finally:
            manager.writer.close()
        # The older checkpoint survives (a crash mid-prune leaves it).
        Path(first).write_bytes(older)
        newest = os.path.join(directory, second)
        raw = Path(newest).read_bytes()
        bad = damaged(raw, data)
        Path(newest).write_bytes(bad)

        restored = make_cache()
        result = replay_journal(directory, restored)
        got = dict(iter_cache_items(restored))
        assert got.items() <= dict(records).items()
        if bad == raw:
            assert got == dict(records)
            assert result.checkpoint_skipped == 0
        elif not bad.startswith(raw[:8]):
            # Never was an image: quarantined, and the next older one
            # loaded.
            assert second in result.quarantined
            assert result.checkpoint_seq == first_seq
            assert got == dict(records[:half])
        else:
            # Loaded up to the first damaged record, and reported — a
            # cut on a record boundary included.
            assert result.checkpoint_seq != first_seq
            assert result.checkpoint_loaded == len(got)
            assert result.checkpoint_skipped == 1

    @settings(max_examples=60, deadline=None)
    @given(records=unique_records, shadowed=st.booleans(), data=st.data())
    def test_replica_resync(self, tmp_path_factory, records, shadowed, data):
        """Old state or the whole image, never a part of it."""
        path, items = write_image(
            str(tmp_path_factory.mktemp("resync")), records, shadowed
        )
        raw = Path(path).read_bytes()
        bad = damaged(raw, data)
        cache = make_cache()
        old = {b"\x00old-%d" % i: b"replica had this" for i in range(3)}
        for key, value in old.items():
            cache.set(key, value)
        client = ReplicationClient(cache, "127.0.0.1", 0)
        try:
            client._resync(bad)
        except ReplicationError:
            assert bad != raw
            assert dict(iter_cache_items(cache)) == old
        else:
            assert bad == raw
            assert dict(iter_cache_items(cache)) == dict(items)


    def test_shadowed_key_every_cut_and_flip_newest_or_miss(self, tmp_path):
        """Exhaustively, for one image of a cache holding a key's older
        version behind its newest: wherever the file is cut and whichever
        bit flips, the key loads as its newest value or not at all."""
        path, items = write_image(str(tmp_path), [], shadowed=True)
        assert [key for key, _value in items].count(SHADOWED) == 1
        raw = Path(path).read_bytes()
        variants = [raw[:cut] for cut in range(len(raw) + 1)]
        for position in range(len(raw)):
            for bit in range(8):
                flipped = bytearray(raw)
                flipped[position] ^= 1 << bit
                variants.append(bytes(flipped))
        for bad in variants:
            restored = make_cache()
            load_snapshot(restored, io.BytesIO(bad))
            assert restored.get(SHADOWED) in (None, b"newest")
