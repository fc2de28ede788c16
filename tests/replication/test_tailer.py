"""Journal tailing across segment rotations: every record once, in order.

The replication sender (its only path) and a promoting replica's catch-up
both ride :class:`JournalTailer`; a dropped or duplicated record at a
rotation boundary would become silent replica divergence, so the
boundary cases get their own tests: batch reads that straddle rotations,
single-record reads that land exactly on them, tailing a directory while
the writer is still appending, torn tails, and pruned positions.
"""

import os
import struct

import pytest

from repro.common.framing import (
    OP_DELETE,
    OP_SET,
    SEGMENT_MAGIC,
    decode_payload,
)
from repro.durability.journal import (
    JournalConfig,
    JournalWriter,
    list_segments,
    segment_name,
)
from repro.core import SimpleKVCache
from tests.nzone.plain import PlainZone
from repro.replication.replica import ReplicationClient
from repro.replication.tailer import JournalTailer, SegmentPrunedError
from tests.durability.test_scrub import flip


def make_writer(tmp_path, segment_bytes=256):
    return JournalWriter(
        JournalConfig(
            directory=str(tmp_path), segment_bytes=segment_bytes, fsync="never"
        )
    )


def append_sets(writer, count, start=0, value_bytes=48):
    expected = []
    for i in range(start, start + count):
        key = b"key-%04d" % i
        value = (b"v%04d-" % i) * (value_bytes // 6)
        writer.append_set(key, value)
        expected.append((OP_SET, key, value))
    return expected


def read_everything(tailer, batch=256):
    out = []
    while True:
        records = tailer.read_batch(batch)
        if not records:
            return out
        out.extend(records)


def rot(path, where):
    """Flip one byte of a segment: its magic, or a frame mid-file."""
    flip(path, 0 if where == "magic" else os.path.getsize(path) // 2)


def decoded(records):
    """(op, key, value) of each tailed (payload, segment, end_offset)."""
    return [decode_payload(payload)[:3] for payload, _seg, _end in records]


class TestRotationBoundaries:
    def test_no_drop_no_dup_across_many_rotations(self, tmp_path):
        writer = make_writer(tmp_path, segment_bytes=256)
        expected = append_sets(writer, 60)
        writer.append_delete(b"key-0000")
        expected.append((OP_DELETE, b"key-0000", b""))
        writer.close()
        # The workload genuinely rotated — the boundary exists to cross.
        assert len(list_segments(str(tmp_path))) >= 3

        tailer = JournalTailer(str(tmp_path), 1, 0)
        records = read_everything(tailer)
        tailer.close()
        assert decoded(records) == expected

    def test_single_record_batches_cross_rotations_too(self, tmp_path):
        """read_batch(1) forces every boundary through the handoff path."""
        writer = make_writer(tmp_path, segment_bytes=256)
        expected = append_sets(writer, 40)
        writer.close()

        tailer = JournalTailer(str(tmp_path), 1, 0)
        records = read_everything(tailer, batch=1)
        tailer.close()
        assert decoded(records) == expected

    def test_positions_strictly_advance_and_never_straddle(self, tmp_path):
        writer = make_writer(tmp_path, segment_bytes=256)
        append_sets(writer, 40)
        writer.close()

        tailer = JournalTailer(str(tmp_path), 1, 0)
        records = read_everything(tailer)
        tailer.close()
        positions = [(seg, end) for _payload, seg, end in records]
        assert positions == sorted(positions)
        assert len(set(positions)) == len(positions)
        # Every end offset fits inside its own segment file: records
        # never straddle a rotation.
        sizes = {
            seq: os.path.getsize(path)
            for seq, path in list_segments(str(tmp_path))
        }
        for seg, end in positions:
            assert len(SEGMENT_MAGIC) < end <= sizes[seg]

    def test_resume_from_mid_stream_position_is_exact(self, tmp_path):
        """Restarting from any returned position replays exactly the rest."""
        writer = make_writer(tmp_path, segment_bytes=256)
        expected = append_sets(writer, 30)
        writer.close()

        tailer = JournalTailer(str(tmp_path), 1, 0)
        records = read_everything(tailer)
        tailer.close()
        for cut in (0, 5, len(records) // 2, len(records) - 1):
            _payload, seg, end = records[cut]
            resumed = JournalTailer(str(tmp_path), seg, end)
            rest = read_everything(resumed)
            resumed.close()
            assert decoded(rest) == expected[cut + 1 :]

    def test_live_tail_sees_later_appends_exactly_once(self, tmp_path):
        writer = make_writer(tmp_path, segment_bytes=256)
        first = append_sets(writer, 8)

        tailer = JournalTailer(str(tmp_path), 1, 0)
        got = read_everything(tailer)
        assert decoded(got) == first
        # Caught up: nothing more on disk right now.
        assert tailer.read_batch() == []

        second = append_sets(writer, 30, start=8)  # forces rotations
        writer.close()
        more = read_everything(tailer)
        tailer.close()
        assert decoded(more) == second


class TestTailDamage:
    def test_torn_tail_in_newest_segment_stops_cleanly(self, tmp_path):
        writer = make_writer(tmp_path, segment_bytes=4096)
        expected = append_sets(writer, 5)
        writer.close()
        ((seq, path),) = list_segments(str(tmp_path))
        with open(path, "ab") as stream:
            stream.write(struct.pack(">I", 500) + b"only half a record")

        tailer = JournalTailer(str(tmp_path), seq, 0)
        records = read_everything(tailer)
        assert decoded(records) == expected
        # Still parked before the torn bytes, not erroring on them.
        assert tailer.read_batch() == []
        tailer.close()

    def test_pruned_position_demands_resync(self, tmp_path):
        writer = make_writer(tmp_path, segment_bytes=256)
        append_sets(writer, 40)
        writer.close()
        segments = list_segments(str(tmp_path))
        assert len(segments) >= 3
        os.remove(segments[0][1])  # prune the tailer's segment

        tailer = JournalTailer(str(tmp_path), segments[0][0], 0)
        with pytest.raises(SegmentPrunedError):
            tailer.read_batch()
        tailer.close()

    def test_pruned_successor_demands_resync(self, tmp_path):
        """A tailer that read its segment to the end keeps the handle;
        if checkpoints then prune that segment *and its successor*, the
        next survivor is not where the stream continues."""
        writer = make_writer(tmp_path, segment_bytes=256)
        append_sets(writer, 3)
        first = writer.position[0]
        tailer = JournalTailer(str(tmp_path), first, 0)
        assert len(read_everything(tailer)) == 3
        append_sets(writer, 30, start=3)
        writer.close()
        segments = list_segments(str(tmp_path))
        assert len(segments) >= 4
        for _seq, path in segments[:2]:
            os.remove(path)  # the tailer's own segment and the next one
        with pytest.raises(SegmentPrunedError):
            tailer.read_batch()
        tailer.close()

    @pytest.mark.parametrize("where", ["frame", "magic"])
    def test_rot_in_a_closed_segment_demands_resync(self, tmp_path, where):
        """A segment with a successor is final: damage there is rot, and
        the one answer is the one a pruned position gets."""
        writer = make_writer(tmp_path, segment_bytes=256)
        append_sets(writer, 40)
        writer.close()
        segments = list_segments(str(tmp_path))
        assert len(segments) >= 4
        rot(segments[1][1], where)

        tailer = JournalTailer(str(tmp_path), segments[0][0], 0)
        before = tailer.read_batch()  # what precedes the rot, then stop
        assert before and tailer.position[0] == segments[1][0]
        with pytest.raises(SegmentPrunedError, match="cannot follow"):
            tailer.read_batch()
        assert tailer.position[0] == segments[1][0]  # never past the rot
        tailer.close()

    @pytest.mark.parametrize("where", ["frame", "magic"])
    def test_catch_up_over_rot_recovers_the_directory(self, tmp_path, where):
        """A promoting replica whose tail meets rot rebuilds from empty
        under recovery's rule, and books what that applied."""
        writer = make_writer(tmp_path, segment_bytes=256)
        append_sets(writer, 40)
        writer.close()
        segments = list_segments(str(tmp_path))
        rot(segments[1][1], where)

        cache = SimpleKVCache(PlainZone(1 << 20))
        client = ReplicationClient(cache, "127.0.0.1", 0)
        client.position = (segments[0][0], 0)
        records, mode, incidents = client.catch_up(str(tmp_path))
        assert mode == "full"
        assert any("mid-log damage" in incident for incident in incidents)
        assert records > 0
        assert client.stats.catch_up_records == records
        assert cache.get(b"key-0000") is not None
        assert cache.get(b"key-0039") is None  # past the rot

    def test_catch_up_books_a_bad_magic_in_the_newest_segment(self, tmp_path):
        """The newest segment of a dead primary's directory has no writer
        left to finish it: a bad magic there is rot, and the acknowledged
        records behind it are lost.  The tail used to read it as "no
        more yet" and book nothing."""
        writer = make_writer(tmp_path, segment_bytes=256)
        append_sets(writer, 40)
        writer.close()
        segments = list_segments(str(tmp_path))
        newest = segments[-1][0]
        rot(segments[-1][1], "magic")

        cache = SimpleKVCache(PlainZone(1 << 20))
        client = ReplicationClient(cache, "127.0.0.1", 0)
        client.position = (segments[0][0], 0)
        records, mode, incidents = client.catch_up(str(tmp_path))
        assert mode == "tail"
        assert incidents == [
            f"tail stopped in {segment_name(newest)} at byte "
            f"{len(SEGMENT_MAGIC)}: bad magic "
            f"{bytes([SEGMENT_MAGIC[0] ^ 1]) + SEGMENT_MAGIC[1:]!r}"
        ]
        assert cache.get(b"key-0039") is None  # behind the rot
        assert client.position[0] == newest - 1
        assert client.stats.catch_up_records == records

    def test_not_yet_created_segment_is_just_empty(self, tmp_path):
        writer = make_writer(tmp_path, segment_bytes=256)
        append_sets(writer, 3)
        writer.close()
        newest = list_segments(str(tmp_path))[-1][0]
        tailer = JournalTailer(str(tmp_path), newest + 1, 0)
        assert tailer.read_batch() == []  # waiting, not pruned
        tailer.close()

    def test_missing_named_segment_with_newer_history_is_pruned(self, tmp_path):
        writer = make_writer(tmp_path, segment_bytes=256)
        append_sets(writer, 40)
        writer.close()
        oldest = list_segments(str(tmp_path))[0][0]
        assert not os.path.exists(
            os.path.join(str(tmp_path), segment_name(oldest - 1))
        ) or oldest == 1
        tailer = JournalTailer(str(tmp_path), 0, 0)
        # Position (0, 0) names a segment that never existed while newer
        # ones do: indistinguishable from pruning, so resync.
        with pytest.raises(SegmentPrunedError):
            tailer.read_batch()
        tailer.close()


class TestTailUnderCheckpoints:
    def test_every_record_once_or_a_resync(self, tmp_path):
        """A seeded interleaving of writes, checkpoints (rotate + prune),
        lazy polls and reconnects: what the tailer yields, with a resync
        standing for "take the image", is exactly what was written."""
        import random

        from repro.core import SimpleKVCache
        from repro.durability.manager import DurabilityConfig, DurabilityManager
        from tests.nzone.plain import PlainZone

        for seed in range(6):
            rng = random.Random(seed)
            directory = str(tmp_path / f"seed{seed}")
            manager = DurabilityManager(
                DurabilityConfig(
                    directory=directory,
                    segment_bytes=512,
                    checkpoint_bytes=2048,
                    fsync="never",
                )
            )
            cache = SimpleKVCache(PlainZone(1 << 22))
            manager.recover_into(cache)
            manager.attach_to(cache)
            written, got, resyncs = [], [], 0
            tailer = JournalTailer(directory, *manager.writer.position)

            def poll(batch):
                nonlocal tailer, got, resyncs
                try:
                    records = tailer.read_batch(batch)
                except SegmentPrunedError:
                    resyncs += 1
                    tailer.close()
                    got = list(written)  # the image holds all of it
                    tailer = JournalTailer(directory, *manager.writer.position)
                    return True
                got += decoded(records)
                return bool(records)

            for step in range(1500):
                draw = rng.random()
                if draw < 0.6:
                    key = b"k%02d" % rng.randrange(50)
                    value = b"v%06d" % step * rng.randrange(1, 8)
                    cache.set(key, value)
                    written.append((OP_SET, key, value))
                    if manager.should_checkpoint():
                        manager.checkpoint(cache)
                elif draw < 0.9:
                    poll(rng.choice((1, 4, 256)))
                elif draw < 0.95:
                    position = tailer.position
                    tailer.close()
                    tailer = JournalTailer(directory, *position)
            while poll(256):
                pass
            tailer.close()
            manager.close()
            assert got == written, seed
            assert resyncs > 0  # the schedule did outrun the pruning
