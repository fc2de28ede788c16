"""At-rest integrity scrubbing: detect silent rot, repair it from memory.

The scrubber only reports; ``DurabilityManager.scrub_once(store)``
repairs what it reports with a checkpoint of the live store, which
prunes the rotten file with everything else the checkpoint covers.  It
used to move the rotten file into ``quarantine/``, which cut a middle
segment out of history (the next recovery refused the directory as a
``journal hole``) or dropped the only checkpoint (the next recovery
loaded only the journal written after it).
"""

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
    list_checkpoints,
    replay_journal,
)
from repro.durability.scrub import scrub_directory
from repro.server.meta import ItemMetaStore
from tests.durability.test_recovery import (
    OPEN_MANAGERS,
    journalled_cache,
    make_cache,
)


def multi_segment_dir(tmp_path, n=30):
    config = JournalConfig(directory=str(tmp_path), segment_bytes=256)
    with JournalWriter(config) as writer:
        for i in range(n):
            writer.append_set(b"key%03d" % i, b"v" * 40)
    return list_segments(str(tmp_path))


def flip(path, at):
    data = bytearray(Path(path).read_bytes())
    data[at] ^= 0x01
    Path(path).write_bytes(bytes(data))


def journalled_store(directory, keys=320, **config_kwargs):
    """A served-style store (flags beside each item) journalling into a
    fresh directory, with overwrites, deletes and flags applied."""
    manager = DurabilityManager(
        DurabilityConfig(directory=str(directory), **config_kwargs)
    )
    OPEN_MANAGERS.append(manager)
    store = ItemMetaStore(make_cache())
    manager.recover_into(store)
    manager.attach_to(store.cache)
    for i in range(keys):
        store.set(b"key:%04d" % i, b"first-%04d" % i, flags=i % 3)
    for i in range(0, keys, 7):
        store.delete(b"key:%04d" % i)
    for i in range(1, keys, 5):
        store.set(b"key:%04d" % i, b"second-%04d" % i)
    return manager, store


def recovered_after_crash(directory):
    """Recover the directory as a restart after SIGKILL would: the live
    manager is never closed, so no final checkpoint is written."""
    store = ItemMetaStore(make_cache())
    return replay_journal(str(directory), store), store


class TestScrub:
    def test_clean_directory_passes(self, tmp_path):
        manager, cache = journalled_cache(tmp_path)
        manager.checkpoint(cache)
        report = manager.scrub_once(cache)
        assert report.clean
        assert report.repaired_by is None
        assert report.files_checked >= 1
        assert manager.stats.scrub_passes == 1
        assert manager.stats.scrub_failures == 0

    def test_active_segment_is_skipped(self, tmp_path):
        manager, cache = journalled_cache(tmp_path)
        # The active segment legitimately ends mid-flux; scrubbing must
        # not flag or repair it even when its tail looks torn.
        with open(manager.writer.current_path, "ab") as stream:
            stream.write(b"\x00\x00\x00\x63partial")
        report = manager.scrub_once(cache)
        assert report.clean
        assert manager.stats.checkpoints_written == 0

    def test_rotten_segment_is_reported_in_place(self, tmp_path):
        segments = multi_segment_dir(tmp_path)
        _victim_seq, victim_path = segments[0]
        flip(victim_path, 20)
        before = Path(victim_path).read_bytes()

        stats = DurabilityStats()
        report = scrub_directory(str(tmp_path), stats=stats)
        assert not report.clean
        assert len(report.failures) == 1
        assert report.failures[0].startswith(os.path.basename(victim_path))
        assert stats.scrub_failures == 1
        # Reporting moves nothing: the file is where it was, unchanged.
        assert stats.quarantined_files == 0
        assert Path(victim_path).read_bytes() == before
        assert not os.path.exists(os.path.join(str(tmp_path), QUARANTINE_DIR))
        assert list_segments(str(tmp_path)) == segments

    def test_rotten_checkpoint_is_repaired_by_checkpoint(self, tmp_path):
        manager, cache = journalled_cache(tmp_path)
        seq = manager.checkpoint(cache)
        path = os.path.join(str(tmp_path), checkpoint_name(seq))
        data = bytearray(Path(path).read_bytes())
        data[-1] ^= 0xFF
        Path(path).write_bytes(bytes(data))
        report = manager.scrub_once(cache)
        assert not report.clean
        assert report.failures[0].startswith(checkpoint_name(seq))
        assert report.repaired_by == seq + 1
        # The repair pruned the rotten image; the new one is all there is.
        assert [s for s, _ in list_checkpoints(str(tmp_path))] == [seq + 1]
        assert manager.scrub_once(cache).clean

    def test_unsealed_checkpoint_is_a_failure_and_repaired(self, tmp_path):
        """Every record whole, the end record cut off: the one damage a
        record walk alone cannot see."""
        manager, cache = journalled_cache(tmp_path)
        seq = manager.checkpoint(cache)
        path = os.path.join(str(tmp_path), checkpoint_name(seq))
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[: -len(end_record(40))])
        report = manager.scrub_once(cache)
        assert not report.clean
        assert "not sealed" in report.failures[0]
        assert report.checkpoints_ok == 0
        assert report.repaired_by == seq + 1
        assert not os.path.exists(path)
        assert manager.stats.scrub_failures == 1

    def test_repaired_files_not_rescanned(self, tmp_path):
        manager, store = journalled_store(tmp_path, segment_bytes=1024)
        segments = list_segments(str(tmp_path))
        assert len(segments) >= 4
        flip(segments[1][1], 20)
        first = manager.scrub_once(store)
        assert not first.clean
        second = manager.scrub_once(store)
        assert second.clean
        # The repair checkpoint covers every closed segment: it is the
        # one file left to check (the active segment is skipped).
        assert second.files_checked == 1
        assert manager.stats.scrub_failures == 1


class TestRepairFromMemory:
    """Scrub, then crash: recovery must come back with the live store."""

    def test_middle_segment_rot_recovers_every_key(self, tmp_path):
        manager, store = journalled_store(tmp_path, segment_bytes=2048)
        segments = list_segments(str(tmp_path))
        assert len(segments) == 7
        flip(segments[3][1], 100)  # #4 of 7, closed

        report = manager.scrub_once(store)
        assert len(report.failures) == 1
        assert report.failures[0].startswith(os.path.basename(segments[3][1]))
        result, recovered = recovered_after_crash(tmp_path)
        assert result.history_gap is None
        assert result.clean
        assert sorted(recovered.walk()) == sorted(store.walk())

    def test_checkpoint_rot_near_the_end_recovers_every_key(self, tmp_path):
        manager, store = journalled_store(tmp_path)
        seq = manager.checkpoint(store)
        for i in range(320, 340):  # journal written after the checkpoint
            store.set(b"key:%04d" % i, b"late-%04d" % i)
        ((_seq, path),) = list_checkpoints(str(tmp_path))
        flip(path, os.path.getsize(path) - 200)

        report = manager.scrub_once(store)
        assert report.failures[0].startswith(checkpoint_name(seq))
        result, recovered = recovered_after_crash(tmp_path)
        assert result.clean
        live = sorted(store.walk())
        assert len(live) == 303
        assert sorted(recovered.walk()) == live
