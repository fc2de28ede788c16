"""At-rest integrity scrubbing: detect and quarantine silent rot."""

import os
from pathlib import Path

from repro.common.framing import end_record
from repro.durability.journal import (
    DurabilityStats,
    JournalConfig,
    JournalWriter,
    list_segments,
)
from repro.durability.manager import (
    QUARANTINE_DIR,
    DurabilityConfig,
    DurabilityManager,
    checkpoint_name,
    replay_journal,
)
from repro.durability.scrub import scrub_directory
from tests.durability.test_recovery import journalled_cache, make_cache


def multi_segment_dir(tmp_path, n=30):
    config = JournalConfig(directory=str(tmp_path), segment_bytes=256)
    with JournalWriter(config) as writer:
        for i in range(n):
            writer.append_set(b"key%03d" % i, b"v" * 40)
    return list_segments(str(tmp_path))


class TestScrub:
    def test_clean_directory_passes(self, tmp_path):
        manager, cache = journalled_cache(tmp_path)
        manager.checkpoint(cache)
        report = manager.scrub_once()
        assert report.clean
        assert report.files_checked >= 1
        assert manager.stats.scrub_passes == 1
        assert manager.stats.scrub_failures == 0

    def test_active_segment_is_skipped(self, tmp_path):
        manager, cache = journalled_cache(tmp_path)
        # The active segment legitimately ends mid-flux; scrubbing must
        # not flag or quarantine it even when its tail looks torn.
        with open(manager.writer.current_path, "ab") as stream:
            stream.write(b"\x00\x00\x00\x63partial")
        report = manager.scrub_once()
        assert report.clean

    def test_rotten_segment_quarantined(self, tmp_path):
        segments = multi_segment_dir(tmp_path)
        victim_seq, victim_path = segments[0]
        data = bytearray(Path(victim_path).read_bytes())
        data[20] ^= 0x01
        Path(victim_path).write_bytes(bytes(data))

        stats = DurabilityStats()
        report = scrub_directory(str(tmp_path), stats=stats)
        assert not report.clean
        assert len(report.failures) == 1
        assert os.path.basename(victim_path) in report.quarantined
        assert stats.scrub_failures == 1
        assert stats.quarantined_files == 1
        assert os.path.exists(
            os.path.join(str(tmp_path), QUARANTINE_DIR, os.path.basename(victim_path))
        )
        # A later recovery sees the smaller-but-sound set of files.
        result = replay_journal(str(tmp_path), make_cache())
        assert victim_seq not in [
            s for s, _ in list_segments(str(tmp_path))
        ]
        assert result.replayed_segments == len(segments) - 1

    def test_rotten_checkpoint_quarantined(self, tmp_path):
        manager, cache = journalled_cache(tmp_path)
        seq = manager.checkpoint(cache)
        path = os.path.join(str(tmp_path), checkpoint_name(seq))
        data = bytearray(Path(path).read_bytes())
        data[-1] ^= 0xFF
        Path(path).write_bytes(bytes(data))
        report = manager.scrub_once()
        assert not report.clean
        assert checkpoint_name(seq) in report.quarantined

    def test_unsealed_checkpoint_is_a_failure_and_quarantined(self, tmp_path):
        """Every record whole, the end record cut off: the one damage a
        record walk alone cannot see."""
        manager, cache = journalled_cache(tmp_path)
        seq = manager.checkpoint(cache)
        path = os.path.join(str(tmp_path), checkpoint_name(seq))
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[: -len(end_record(40))])
        report = manager.scrub_once()
        assert not report.clean
        assert "not sealed" in report.failures[0]
        assert report.quarantined == [checkpoint_name(seq)]
        assert report.checkpoints_ok == 0

    def test_quarantined_files_not_rescanned(self, tmp_path):
        segments = multi_segment_dir(tmp_path)
        _seq, victim_path = segments[0]
        data = bytearray(Path(victim_path).read_bytes())
        data[20] ^= 0x01
        Path(victim_path).write_bytes(bytes(data))
        first = scrub_directory(str(tmp_path))
        assert not first.clean
        second = scrub_directory(str(tmp_path))
        assert second.clean
        assert second.files_checked == first.files_checked - 1
