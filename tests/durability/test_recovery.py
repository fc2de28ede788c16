"""Point-in-time recovery: checkpoint + replay, damage containment."""

import os
from pathlib import Path

import pytest

from repro.common.errors import CacheError
from repro.core import SimpleKVCache
from repro.common.framing import OP_SET, SEGMENT_MAGIC, encode_record
from repro.durability.journal import (
    JournalConfig,
    JournalWriter,
    list_segments,
    segment_name,
)
from repro.durability.manager import (
    QUARANTINE_DIR,
    DurabilityConfig,
    DurabilityManager,
    checkpoint_name,
    list_checkpoints,
    replay_journal,
)
from tests.nzone.plain import PlainZone


def make_cache(capacity=1 << 20):
    return SimpleKVCache(PlainZone(capacity))


#: Managers :func:`journalled_cache` built; conftest.py closes their
#: writers after each test so no ``.wal`` handle outlives it.
OPEN_MANAGERS = []


def journalled_cache(directory, items=50, deletes=10, **config_kwargs):
    """A cache wired to a fresh durability dir, with some traffic applied."""
    config = DurabilityConfig(directory=str(directory), **config_kwargs)
    manager = DurabilityManager(config)
    OPEN_MANAGERS.append(manager)
    cache = make_cache()
    manager.recover_into(cache)
    manager.attach_to(cache)
    for i in range(items):
        cache.set(b"key:%04d" % i, b"value-%04d" % i)
    for i in range(deletes):
        cache.delete(b"key:%04d" % i)
    return manager, cache


class TestJournalOnlyRecovery:
    def test_sets_and_deletes_replay_exactly(self, tmp_path):
        manager, cache = journalled_cache(tmp_path)
        manager.writer.sync()

        restored = make_cache()
        result = replay_journal(str(tmp_path), restored)
        assert result.clean
        assert result.replayed_records == 60  # 50 sets + 10 deletes
        for i in range(10):
            assert restored.get(b"key:%04d" % i) is None
        for i in range(10, 50):
            assert restored.get(b"key:%04d" % i) == b"value-%04d" % i

    def test_recovery_of_empty_directory_is_clean(self, tmp_path):
        restored = make_cache()
        result = replay_journal(str(tmp_path), restored)
        assert result.clean
        assert result.replayed_records == 0
        assert restored.item_count == 0


class TestCheckpointRecovery:
    def test_checkpoint_plus_tail_replay(self, tmp_path):
        manager, cache = journalled_cache(tmp_path, deletes=0)
        seq = manager.checkpoint(cache)
        # Post-checkpoint traffic lands in segments >= seq.
        for i in range(50, 60):
            cache.set(b"key:%04d" % i, b"late-%04d" % i)
        cache.delete(b"key:0000")
        manager.writer.sync()

        restored = make_cache()
        result = replay_journal(str(tmp_path), restored)
        assert result.clean
        assert result.checkpoint_seq == seq
        assert result.checkpoint_loaded == 50
        assert result.replayed_records == 11
        assert restored.get(b"key:0000") is None
        assert restored.get(b"key:0059") == b"late-0059"
        assert restored.get(b"key:0049") == b"value-0049"

    def test_checkpoint_prunes_covered_history(self, tmp_path):
        manager, cache = journalled_cache(
            tmp_path, items=200, segment_bytes=512
        )
        assert len(list_segments(str(tmp_path))) > 1
        seq = manager.checkpoint(cache)
        remaining = [s for s, _ in list_segments(str(tmp_path))]
        assert min(remaining) >= seq
        assert [s for s, _ in list_checkpoints(str(tmp_path))] == [seq]
        assert manager.stats.segments_pruned > 0

    def test_second_checkpoint_supersedes_first(self, tmp_path):
        manager, cache = journalled_cache(tmp_path)
        first = manager.checkpoint(cache)
        cache.set(b"extra", b"bytes")
        second = manager.checkpoint(cache)
        assert second > first
        assert [s for s, _ in list_checkpoints(str(tmp_path))] == [second]
        assert manager.stats.checkpoints_pruned == 1

    def test_corrupt_checkpoint_falls_back_to_older(self, tmp_path):
        manager, cache = journalled_cache(tmp_path, deletes=0)
        first = manager.checkpoint(cache)
        first_path = os.path.join(str(tmp_path), checkpoint_name(first))
        saved_image = Path(first_path).read_bytes()
        cache.set(b"newer", b"than-first")
        second = manager.checkpoint(cache)
        # Resurrect the first checkpoint (pruning removed it) as a
        # stale-but-valid fallback, then make the newest one bytes that
        # never were an image: only a bad magic is refused whole.
        Path(first_path).write_bytes(saved_image)
        second_path = os.path.join(str(tmp_path), checkpoint_name(second))
        data = bytearray(Path(second_path).read_bytes())
        data[0] ^= 0xFF
        Path(second_path).write_bytes(bytes(data))

        restored = make_cache()
        result = replay_journal(str(tmp_path), restored)
        assert not result.clean
        assert any("magic" in incident for incident in result.incidents)
        assert result.quarantined == [checkpoint_name(second)]
        assert os.listdir(os.path.join(str(tmp_path), QUARANTINE_DIR)) == [
            checkpoint_name(second)
        ]
        # Fell back to the older image: everything it covered is present;
        # the one write after it is a *detected* loss, not silent wrongness.
        assert result.checkpoint_seq == first
        assert result.checkpoint_loaded == 50
        assert restored.get(b"key:0049") == b"value-0049"
        assert restored.get(b"newer") is None
        # The newer checkpoint pruned the journal the older one needs:
        # the directory has a hole, which a server refuses to serve over.
        assert "journal hole" in result.history_gap

    def test_flipped_checkpoint_keeps_every_record_before_the_flip(
        self, tmp_path
    ):
        """One byte flipped mid-file in the only checkpoint costs the
        records from the damaged one on, nothing before it.  Refusing the
        image whole, as the checkpoint's CRC sidecar did, left recovery
        with 1 of 52 keys: the one write journaled after the checkpoint."""
        manager, cache = journalled_cache(tmp_path, items=51, deletes=0)
        seq = manager.checkpoint(cache)
        cache.set(b"late", b"after the checkpoint")
        manager.writer.sync()
        path = os.path.join(str(tmp_path), checkpoint_name(seq))
        data = bytearray(Path(path).read_bytes())
        flip = len(data) // 2
        data[flip] ^= 0x01
        Path(path).write_bytes(bytes(data))
        record = len(encode_record(OP_SET, b"key:0000", b"value-0000"))
        before = (flip - len(SEGMENT_MAGIC)) // record

        restored = make_cache()
        result = replay_journal(str(tmp_path), restored)
        assert result.checkpoint_seq == seq
        assert result.checkpoint_loaded == before
        assert result.checkpoint_skipped == 1
        assert result.quarantined == [] and result.history_gap is None
        assert restored.get(b"late") == b"after the checkpoint"
        for i in range(51):
            expected = b"value-%04d" % i if i < before else None
            assert restored.get(b"key:%04d" % i) == expected

    def test_close_writes_final_checkpoint(self, tmp_path):
        manager, cache = journalled_cache(tmp_path)
        manager.close(cache)
        assert manager.writer.closed
        restored = make_cache()
        result = replay_journal(str(tmp_path), restored)
        assert result.clean
        assert result.checkpoint_loaded == 40  # 50 sets - 10 deletes
        assert result.replayed_records == 0


class TestDamageContainment:
    def _torn_directory(self, tmp_path, cut=5):
        manager, cache = journalled_cache(tmp_path, deletes=0)
        manager.writer.sync()
        path = manager.writer.current_path
        manager.writer.close()
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[:-cut])
        return path

    def test_torn_tail_truncated_and_counted(self, tmp_path):
        path = self._torn_directory(tmp_path)
        restored = make_cache()
        result = replay_journal(str(tmp_path), restored)
        assert not result.clean
        assert result.torn_tail_records == 1
        assert result.replayed_records == 49
        assert result.truncated_bytes > 0
        # The segment was truncated back to its valid prefix: a second
        # recovery sees a clean directory.
        again = replay_journal(str(tmp_path), make_cache())
        assert again.clean
        assert again.replayed_records == 49

    def test_midlog_damage_quarantines_later_segments(self, tmp_path):
        config = JournalConfig(directory=str(tmp_path), segment_bytes=256)
        with JournalWriter(config) as writer:
            for i in range(30):
                writer.append_set(b"key%03d" % i, b"v" * 40)
        segments = list_segments(str(tmp_path))
        assert len(segments) >= 3
        victim_seq, victim_path = segments[1]
        data = bytearray(Path(victim_path).read_bytes())
        data[len(SEGMENT_MAGIC) + 2] ^= 0x10
        Path(victim_path).write_bytes(bytes(data))

        restored = make_cache()
        result = replay_journal(str(tmp_path), restored)
        assert not result.clean
        # Everything before the damage replayed; nothing after it did.
        first_records = [
            s for s, _ in segments if s < victim_seq
        ]
        assert result.replayed_segments == len(first_records) + 1
        later = [segment_name(s) for s, _ in segments if s > victim_seq]
        for name in later:
            assert name in result.quarantined
        # The damaged segment keeps its valid prefix (truncated in
        # place); only the segments *after* the hole are quarantined.
        qdir = os.path.join(str(tmp_path), QUARANTINE_DIR)
        assert sorted(os.listdir(qdir)) == sorted(later)

    def test_deleted_key_never_resurrects_across_checkpointed_restart(
        self, tmp_path
    ):
        manager, cache = journalled_cache(tmp_path, items=20, deletes=0)
        cache.set(b"victim", b"alive")
        manager.checkpoint(cache)
        cache.delete(b"victim")
        manager.writer.sync()
        restored = make_cache()
        result = replay_journal(str(tmp_path), restored)
        assert result.clean
        assert restored.get(b"victim") is None


class RefusingCache:
    """A test double for a cache that refuses every item, which no
    cache in the library does."""

    def set(self, key, value, flags=0):
        raise CacheError(f"refused {key!r}")

    def delete(self, key):
        return False


class TestRefusal:
    def test_a_refused_checkpoint_stays_in_place_and_the_error_surfaces(
        self, tmp_path
    ):
        """A refusal is not damage: it reaches the caller, and the sealed,
        undamaged checkpoint is neither quarantined nor reported as
        unreadable.  Recovery used to catch it, move the file to
        quarantine/ and serve without the items behind the refusal."""
        manager, cache = journalled_cache(tmp_path)
        seq = manager.checkpoint(cache)
        path = tmp_path / checkpoint_name(seq)
        with pytest.raises(CacheError, match="refused"):
            replay_journal(str(tmp_path), RefusingCache())
        assert path.exists()
        assert not (tmp_path / QUARANTINE_DIR).exists()
        restored = make_cache()
        assert replay_journal(str(tmp_path), restored).checkpoint_loaded == 40


class TestManagerLifecycle:
    def test_recover_attach_roundtrip(self, tmp_path):
        manager, cache = journalled_cache(tmp_path)
        manager.close(cache)

        second = DurabilityManager(DurabilityConfig(directory=str(tmp_path)))
        restored = make_cache()
        result = second.recover_into(restored)
        second.attach_to(restored)
        assert result.checkpoint_loaded == 40
        # New traffic journals through the new writer.
        restored.set(b"post", b"restart")
        second.writer.sync()
        second.close()

        third = make_cache()
        final = replay_journal(str(tmp_path), third)
        assert final.clean
        assert third.get(b"post") == b"restart"

    def test_should_checkpoint_tracks_journal_bytes(self, tmp_path):
        config = DurabilityConfig(directory=str(tmp_path), checkpoint_bytes=512)
        manager = DurabilityManager(config)
        cache = make_cache()
        manager.recover_into(cache)
        manager.attach_to(cache)
        assert not manager.should_checkpoint()
        for i in range(20):
            cache.set(b"key%02d" % i, b"v" * 48)
        assert manager.should_checkpoint()
        manager.checkpoint(cache)
        assert not manager.should_checkpoint()
        manager.close()

    def test_checkpoints_disabled_with_zero_budget(self, tmp_path):
        config = DurabilityConfig(directory=str(tmp_path), checkpoint_bytes=0)
        manager = DurabilityManager(config)
        cache = make_cache()
        manager.recover_into(cache)
        manager.attach_to(cache)
        for i in range(50):
            cache.set(b"key%02d" % i, b"v" * 100)
        assert not manager.should_checkpoint()
        manager.close()
