"""Tests for cache snapshots."""

import io

import pytest

from repro.common.clock import VirtualClock
from repro.common.framing import (
    OP_SET,
    SEGMENT_MAGIC,
    encode_record,
    end_record,
    read_segment,
)
from repro.core import SimpleKVCache, ZExpander, ZExpanderConfig
from repro.core.snapshot import load_snapshot, write_snapshot
from tests.nzone.plain import PlainZone
from repro.workloads.values import PlacesValueGenerator


def read_items(source):
    """Every (key, value, flags) an image holds; fails on any damage."""
    items = []
    scan = read_segment(
        source, lambda op, key, value, flags: items.append((key, value, flags))
    )
    assert scan.clean, scan.error
    return items


def filled_zexpander(total=64 * 1024, items=400):
    clock = VirtualClock()
    cache = ZExpander(
        ZExpanderConfig(
            total_capacity=total,
            nzone_fraction=0.3,
            adaptive=False,
            marker_interval_seconds=1e9,
            seed=9,
        ),
        clock=clock,
    )
    generator = PlacesValueGenerator(seed=2)
    for i in range(items):
        clock.advance(1e-4)
        cache.set(b"snap:%06d" % i, generator.generate(i))
    return cache


class TestRoundtrip:
    def test_simple_cache_roundtrip(self, tmp_path):
        cache = SimpleKVCache(PlainZone(1 << 16))
        for i in range(50):
            cache.set(b"k%03d" % i, b"v%03d" % i)
        path = tmp_path / "cache.snap"
        written = write_snapshot(cache, path)
        assert written == 50
        restored = SimpleKVCache(PlainZone(1 << 16))
        loaded = load_snapshot(restored, path)
        assert loaded.clean and loaded.records == 50
        for i in range(50):
            assert restored.get(b"k%03d" % i) == b"v%03d" % i

    def test_zexpander_roundtrip_preserves_all_items(self, tmp_path):
        cache = filled_zexpander()
        originals = dict(
            list(cache.zzone.items()) + list(cache.nzone.items())
        )
        path = tmp_path / "zx.snap"
        written = write_snapshot(cache, path)
        assert written == cache.item_count
        restored = filled_zexpander(items=0)
        load_snapshot(restored, path)
        assert restored.item_count == pytest.approx(cache.item_count, abs=5)
        wrong = sum(
            1
            for key, value in originals.items()
            if restored.get(key) not in (None, value)
        )
        assert wrong == 0
        restored.check_invariants()

    def test_hot_items_land_in_nzone(self, tmp_path):
        cache = filled_zexpander()
        n_keys = [key for key, _value in cache.nzone.items()]
        path = tmp_path / "zx.snap"
        write_snapshot(cache, path)
        restored = filled_zexpander(items=0)
        load_snapshot(restored, path)
        resident_in_n = sum(
            1 for key in n_keys if restored.nzone.get(key) is not None
        )
        assert resident_in_n > len(n_keys) * 0.6

    def test_stream_roundtrip(self):
        cache = SimpleKVCache(PlainZone(4096))
        cache.set(b"a", b"1")
        buffer = io.BytesIO()
        write_snapshot(cache, buffer)
        assert buffer.getvalue() == (
            SEGMENT_MAGIC + encode_record(OP_SET, b"a", b"1") + end_record(1)
        )
        buffer.seek(0)
        assert read_items(buffer) == [(b"a", b"1", 0)]

    def test_empty_cache(self, tmp_path):
        cache = SimpleKVCache(PlainZone(4096))
        path = tmp_path / "empty.snap"
        assert write_snapshot(cache, path) == 0
        assert read_items(path) == []


class TestMarkers:
    def test_an_image_holds_no_locality_marker(self):
        """The store model's shrunk example: the locality marker a command
        mints after an idle interval sits in the N-zone, and every image
        (snapshot, checkpoint, resync) carried it as an item no client
        wrote."""
        clock = VirtualClock()
        cache = ZExpander(
            ZExpanderConfig(
                total_capacity=3 * 1024,
                block_capacity=512,
                marker_interval_seconds=0.1,
                seed=17,
            ),
            clock=clock,
        )
        cache.delete(b"st:00")
        clock.advance(0.1)
        cache.delete(b"st:00")
        assert cache.item_count == 1  # the marker
        image = io.BytesIO()
        assert write_snapshot(cache, image) == 0


class TestValidation:
    """Damage never raises and never loads: the scan says what happened."""

    def _load(self, data):
        restored = SimpleKVCache(PlainZone(1 << 16))
        scan = load_snapshot(restored, io.BytesIO(data))
        assert list(restored.nzone.items()) == []
        assert scan.records == 0
        assert scan.damaged_bytes == len(data) - scan.valid_bytes
        return scan

    def test_bad_magic(self):
        scan = self._load(b"NOTASNAP")
        assert scan.valid_bytes == 0 and "magic" in scan.error

    def test_truncated_header(self):
        scan = self._load(SEGMENT_MAGIC + b"\x00\x00")
        assert scan.valid_bytes == len(SEGMENT_MAGIC)
        assert "header" in scan.error

    def test_truncated_body(self):
        record = encode_record(OP_SET, b"key", b"ab")
        scan = self._load(SEGMENT_MAGIC + record[:-5])
        assert scan.valid_bytes == len(SEGMENT_MAGIC)
        assert "body" in scan.error

    def test_implausible_lengths(self):
        scan = self._load(SEGMENT_MAGIC + b"\xff\xff\xff\xff" + b"x")
        assert "implausible" in scan.error


class _ExplodingCache:
    """Yields a few items, then dies mid-serialisation."""

    def __init__(self, good_items=3):
        self.good_items = good_items

    def items(self):
        for i in range(self.good_items):
            yield b"k%d" % i, b"v%d" % i
        raise RuntimeError("disk on fire")


class TestCrashSafeWrite:
    def test_failed_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "never.snap"
        with pytest.raises(RuntimeError):
            write_snapshot(_ExplodingCache(), path)
        assert not path.exists()
        assert not (tmp_path / "never.snap.tmp").exists()

    def test_failed_rewrite_preserves_previous_snapshot(self, tmp_path):
        cache = SimpleKVCache(PlainZone(1 << 16))
        for i in range(20):
            cache.set(b"k%03d" % i, b"v%03d" % i)
        path = tmp_path / "cache.snap"
        write_snapshot(cache, path)
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            write_snapshot(_ExplodingCache(), path)
        # The atomic replace never ran: old snapshot intact, loadable.
        assert path.read_bytes() == before
        restored = SimpleKVCache(PlainZone(1 << 16))
        assert load_snapshot(restored, path).records == 20

    def test_snapshot_write_fsyncs_parent_directory(self, tmp_path, monkeypatch):
        """The rename only survives a power cut if the parent dir is
        fsynced; write_snapshot must go through atomic_write's full dance."""
        import os

        from repro.common import fsio

        synced_dirs = []
        real = fsio.fsync_directory
        monkeypatch.setattr(
            fsio,
            "fsync_directory",
            lambda path: (synced_dirs.append(os.fspath(path)), real(path))[1],
        )
        cache = SimpleKVCache(PlainZone(1 << 16))
        cache.set(b"k", b"v")
        write_snapshot(cache, tmp_path / "dir.snap")
        assert str(tmp_path) in synced_dirs

    def test_kill_mid_write_never_truncates_final_path(self, tmp_path):
        """SIGKILL a writer process; the final path is absent or valid.

        The child rewrites the same snapshot in a tight loop; whenever
        the KILL lands — during the tmp write, the fsync, or between
        renames — the final path must hold a complete snapshot or not
        exist at all.
        """
        import signal
        import subprocess
        import sys
        import time

        path = tmp_path / "killed.snap"
        script = (
            "import sys\n"
            "from repro.core import SimpleKVCache\n"
            "from repro.core.snapshot import write_snapshot\n"
            "from tests.nzone.plain import PlainZone\n"
            "cache = SimpleKVCache(PlainZone(1 << 22))\n"
            "for i in range(4000):\n"
            "    cache.set(b'k%05d' % i, b'v' * 200)\n"
            "print('ready', flush=True)\n"
            "while True:\n"
            "    write_snapshot(cache, sys.argv[1])\n"
        )
        child = subprocess.Popen(
            [sys.executable, "-c", script, str(path)],
            stdout=subprocess.PIPE,
        )
        try:
            assert child.stdout.readline().strip() == b"ready"
            time.sleep(0.2)  # land the kill somewhere inside a rewrite
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait()
            child.stdout.close()
        if path.exists():
            assert len(read_items(path)) == 4000  # fails if torn
        # A leftover .tmp is acceptable debris; the *final* path never
        # holds a partial file, and the next writer simply replaces it.


class TestRecoveryMode:
    def _snapshot_bytes(self, items=30):
        cache = SimpleKVCache(PlainZone(1 << 16))
        for i in range(items):
            cache.set(b"key:%04d" % i, b"value-%04d" % i)
        buffer = io.BytesIO()
        write_snapshot(cache, buffer)
        return buffer.getvalue()

    def test_truncated_tail_counted_and_skipped(self):
        data = self._snapshot_bytes()
        cut = len(data) - len(end_record(30)) - 7  # into the last item
        restored = SimpleKVCache(PlainZone(1 << 16))
        result = load_snapshot(restored, io.BytesIO(data[:cut]))
        assert result.records == 29
        assert not result.clean and "torn" in result.error
        assert result.valid_bytes + result.damaged_bytes == cut
        assert restored.get(b"key:0028") == b"value-0028"
        assert restored.get(b"key:0029") is None

    def test_intact_snapshot_reports_clean(self, tmp_path):
        path = tmp_path / "clean.snap"
        data = self._snapshot_bytes()
        path.write_bytes(data)
        restored = SimpleKVCache(PlainZone(1 << 16))
        result = load_snapshot(restored, path)
        assert result.records == 30
        assert result.clean and result.damaged_bytes == 0
        assert result.valid_bytes == len(data)

    def test_bad_magic_is_refused_not_loaded_as_empty(self):
        """A file that never was an image must be tellable from an empty
        one: ``valid_bytes`` is 0 and the error is set."""
        restored = SimpleKVCache(PlainZone(1 << 16))
        result = load_snapshot(restored, io.BytesIO(b"GARBAGE!"))
        assert (result.records, result.valid_bytes) == (0, 0)
        assert not result.clean
        buffer = io.BytesIO()
        write_snapshot(SimpleKVCache(PlainZone(4096)), buffer)
        buffer.seek(0)
        empty = load_snapshot(restored, buffer)
        assert empty.clean and empty.valid_bytes == len(buffer.getvalue())

    def test_recovery_mode_on_midfile_header_cut(self):
        data = self._snapshot_bytes()
        # Cut inside a *header*, not a body: leave magic + 10 records + 3
        # stray bytes that look like the start of a length header.
        record_size = len(encode_record(OP_SET, b"key:0000", b"value-0000"))
        assert len(data) == (
            len(SEGMENT_MAGIC) + 30 * record_size + len(end_record(30))
        )
        cut = len(SEGMENT_MAGIC) + 10 * record_size + 3
        restored = SimpleKVCache(PlainZone(1 << 16))
        result = load_snapshot(restored, io.BytesIO(data[:cut]))
        assert result.records == 10
        assert result.valid_bytes == cut - 3
        assert "header" in result.error

    def test_every_flip_and_every_cut_is_a_miss_never_wrong_bytes(self):
        """The defect the old format had: one flipped bit in a value
        loaded clean and was served.  Exhaustively, for a small image:
        whatever single bit flips or wherever the file is cut, each key
        reads as the value written or as a miss, and only the whole
        image reads clean — a cut on a record boundary leaves it
        unsealed, which is reported like any other damage."""
        data = self._snapshot_bytes(12)
        written = {b"key:%04d" % i: b"value-%04d" % i for i in range(12)}
        variants = [data[:cut] for cut in range(len(data) + 1)]
        for position in range(len(data)):
            for bit in range(8):
                flipped = bytearray(data)
                flipped[position] ^= 1 << bit
                variants.append(bytes(flipped))
        for bad in variants:
            restored = SimpleKVCache(PlainZone(1 << 16))
            result = load_snapshot(restored, io.BytesIO(bad))
            got = dict(restored.nzone.items())
            assert got.items() <= written.items()
            assert len(got) == result.records
            assert result.clean == (bad == data), (len(bad), result)
            assert result.sealed == (bad == data)

    def test_end_record_must_count_what_precedes_it_and_end_the_image(self):
        """A record dropped from the middle, or bytes appended after the
        seal, leave every frame whole; the count and the position of the
        end record are what catch them."""
        data = self._snapshot_bytes(5)
        record_size = len(encode_record(OP_SET, b"key:0000", b"value-0000"))
        start = len(SEGMENT_MAGIC) + 2 * record_size
        dropped = data[:start] + data[start + record_size :]
        restored = SimpleKVCache(PlainZone(1 << 16))
        result = load_snapshot(restored, io.BytesIO(dropped))
        assert not result.clean and "counts 5 records, 4" in result.error
        assert result.records == 4
        result = load_snapshot(restored, io.BytesIO(data + data[-20:]))
        assert result.records == 5 and result.valid_bytes == len(data)
        assert result.damaged_bytes == 20 and "after the end" in result.error
        assert not result.sealed


class TestFastPathSnapshot:
    """Snapshots must capture staged (not-yet-merged) Z-zone items."""

    def _fastpath_cache(self, items=400):
        clock = VirtualClock()
        cache = ZExpander(
            ZExpanderConfig(
                total_capacity=64 * 1024,
                nzone_fraction=0.3,
                adaptive=False,
                marker_interval_seconds=1e9,
                seed=9,
                append_region_bytes=512,
            ),
            clock=clock,
        )
        generator = PlacesValueGenerator(seed=2)
        for i in range(items):
            clock.advance(1e-4)
            cache.set(b"snap:%06d" % i, generator.generate(i))
        return cache

    def test_staged_items_survive_roundtrip(self, tmp_path):
        cache = self._fastpath_cache()
        assert any(
            leaf.staged_index for leaf in cache.zzone._trie.leaves()
        ), "workload must leave some items staged at snapshot time"
        originals = dict(
            list(cache.zzone.items()) + list(cache.nzone.items())
        )
        path = tmp_path / "fastpath.snap"
        written = write_snapshot(cache, path)
        assert written == cache.item_count
        restored = self._fastpath_cache(items=0)
        load_snapshot(restored, path)
        assert restored.item_count == pytest.approx(cache.item_count, abs=5)
        wrong = sum(
            1
            for key, value in originals.items()
            if restored.get(key) not in (None, value)
        )
        assert wrong == 0
        restored.check_invariants()

    def test_restored_into_default_config_flushes_cleanly(self, tmp_path):
        """A snapshot taken with the fast path armed loads into a cache
        with the knobs off — staged items were written as plain records."""
        cache = self._fastpath_cache(items=200)
        path = tmp_path / "mixed.snap"
        write_snapshot(cache, path)
        restored = filled_zexpander(items=0)
        loaded = load_snapshot(restored, path)
        assert loaded.clean and loaded.records > 0
        restored.check_invariants()
