"""The write-ahead journal: codec, writer, rotation, fsync accounting."""

import os
from pathlib import Path

import pytest

from repro.common.errors import ConfigurationError, JournalError
from repro.common.framing import (
    OP_DELETE,
    OP_SET,
    SEGMENT_MAGIC,
    decode_payload,
    encode_record,
    read_segment,
)
from repro.durability.journal import (
    DurabilityStats,
    JournalConfig,
    JournalWriter,
    list_segments,
    parse_segment_seq,
    segment_name,
)


class TestCodec:
    def test_set_record_roundtrip(self):
        record = encode_record(OP_SET, b"user:1", b"some value \x00\xff")
        payload = record[4:-4]  # strip length header and CRC trailer
        assert decode_payload(payload) == (
            OP_SET, b"user:1", b"some value \x00\xff", 0
        )

    def test_delete_record_has_empty_value(self):
        payload = encode_record(OP_DELETE, b"gone")[4:-4]
        assert decode_payload(payload) == (OP_DELETE, b"gone", b"", 0)

    def test_unknown_op_rejected_at_encode_and_decode(self):
        with pytest.raises(ValueError):
            encode_record(0x7A, b"k")
        bad = bytearray(encode_record(OP_SET, b"k", b"v")[4:-4])
        bad[0] = 0x7A
        with pytest.raises(JournalError):
            decode_payload(bytes(bad))

    def test_delete_with_value_rejected(self):
        # Hand-craft: op=D, keylen=1, key, then stray value bytes.
        import struct

        payload = struct.pack(">BI", OP_DELETE, 1) + b"k" + b"stray"
        with pytest.raises(JournalError):
            decode_payload(payload)

    def test_implausible_key_length_rejected(self):
        import struct

        payload = struct.pack(">BI", OP_SET, 1 << 30) + b"k"
        with pytest.raises(JournalError):
            decode_payload(payload)


class TestSegmentNames:
    def test_roundtrip(self):
        assert parse_segment_seq(segment_name(42)) == 42

    def test_rejects_foreign_names(self):
        assert parse_segment_seq("checkpoint-00000001.snap") is None
        assert parse_segment_seq("journal-abc.wal") is None
        assert parse_segment_seq("journal-00000001.wal.tmp") is None


class TestWriter:
    def test_appends_then_reads_back(self, tmp_path):
        config = JournalConfig(directory=str(tmp_path))
        with JournalWriter(config) as writer:
            writer.append_set(b"a", b"1")
            writer.append_set(b"b", b"2")
            writer.append_delete(b"a")
            path = writer.current_path
        replayed = []
        scan = read_segment(
            path, lambda op, k, v, _flags: replayed.append((op, k, v))
        )
        assert scan.clean and scan.records == 3
        assert replayed == [
            (OP_SET, b"a", b"1"),
            (OP_SET, b"b", b"2"),
            (OP_DELETE, b"a", b""),
        ]

    def test_new_writer_never_appends_to_old_segment(self, tmp_path):
        config = JournalConfig(directory=str(tmp_path))
        with JournalWriter(config) as writer:
            writer.append_set(b"a", b"1")
            first = writer.position[0]
        with JournalWriter(config) as writer:
            assert writer.position[0] == first + 1

    def test_rotation_past_segment_bytes(self, tmp_path):
        config = JournalConfig(directory=str(tmp_path), segment_bytes=256)
        with JournalWriter(config) as writer:
            for i in range(20):
                writer.append_set(b"key%02d" % i, b"v" * 40)
        segments = list_segments(str(tmp_path))
        assert len(segments) > 1
        total = 0
        for _seq, path in segments:
            scan = read_segment(path)
            assert scan.clean
            total += scan.records
        assert total == 20

    def test_fsync_always_counts_per_append(self, tmp_path):
        stats = DurabilityStats()
        config = JournalConfig(directory=str(tmp_path), fsync="always")
        with JournalWriter(config, stats=stats) as writer:
            writer.append_set(b"a", b"1")
            writer.append_set(b"b", b"2")
        assert stats.fsyncs == 2
        assert stats.journal_appends == 2

    def test_fsync_never_counts_zero(self, tmp_path):
        stats = DurabilityStats()
        config = JournalConfig(directory=str(tmp_path), fsync="never")
        with JournalWriter(config, stats=stats) as writer:
            for i in range(10):
                writer.append_set(b"k%d" % i, b"v")
        assert stats.fsyncs == 0

    def test_interval_policy_syncs_on_schedule(self, tmp_path):
        stats = DurabilityStats()
        config = JournalConfig(
            directory=str(tmp_path), fsync="interval", fsync_interval=1e-6
        )
        with JournalWriter(config, stats=stats) as writer:
            writer.append_set(b"a", b"1")
            import time

            time.sleep(0.01)
            writer.append_set(b"b", b"2")  # interval elapsed -> fsync
        assert stats.fsyncs >= 1

    def test_maybe_sync_flushes_pending_interval_writes(self, tmp_path):
        stats = DurabilityStats()
        config = JournalConfig(
            directory=str(tmp_path), fsync="interval", fsync_interval=3600.0
        )
        writer = JournalWriter(config, stats=stats)
        writer.append_set(b"a", b"1")
        assert stats.fsyncs == 0  # within the interval: flushed, not synced
        assert writer.maybe_sync() is False  # interval not yet elapsed
        writer._last_sync -= 7200.0  # pretend the interval passed
        assert writer.maybe_sync() is True
        assert stats.fsyncs == 1
        assert writer.maybe_sync() is False  # nothing pending now
        writer.close()

    def test_closed_writer_rejects_appends(self, tmp_path):
        writer = JournalWriter(JournalConfig(directory=str(tmp_path)))
        writer.close()
        assert writer.closed
        with pytest.raises(JournalError):
            writer.append_set(b"a", b"1")

    def test_bad_policy_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            JournalConfig(directory=str(tmp_path), fsync="sometimes").validate()


class TestDamageDetection:
    def _write_segment(self, tmp_path, n=5):
        config = JournalConfig(directory=str(tmp_path))
        with JournalWriter(config) as writer:
            for i in range(n):
                writer.append_set(b"key%03d" % i, b"value%03d" % i)
            return writer.current_path

    def test_torn_tail_stops_at_valid_prefix(self, tmp_path):
        path = self._write_segment(tmp_path)
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[:-5])  # cut the last record's CRC
        scan = read_segment(path)
        assert not scan.clean
        assert scan.records == 4
        assert scan.damaged_bytes > 0
        assert scan.valid_bytes + scan.damaged_bytes == len(data) - 5

    def test_flipped_bit_fails_crc(self, tmp_path):
        path = self._write_segment(tmp_path)
        data = bytearray(Path(path).read_bytes())
        data[len(SEGMENT_MAGIC) + 6] ^= 0x40  # inside the first payload
        Path(path).write_bytes(bytes(data))
        scan = read_segment(path)
        assert not scan.clean
        assert scan.records == 0
        assert "CRC" in scan.error or "torn" in scan.error

    def test_bad_magic_marks_whole_file(self, tmp_path):
        path = self._write_segment(tmp_path)
        data = bytearray(Path(path).read_bytes())
        data[0] ^= 0xFF
        Path(path).write_bytes(bytes(data))
        scan = read_segment(path)
        assert not scan.clean
        assert scan.records == 0
        assert scan.damaged_bytes == len(data)

    def test_empty_segment_is_clean(self, tmp_path):
        config = JournalConfig(directory=str(tmp_path))
        with JournalWriter(config) as writer:
            path = writer.current_path
        scan = read_segment(path)
        assert scan.clean and scan.records == 0
