"""Crash-safe filesystem primitives: atomic_write and fsync_directory."""

import os

import pytest

from repro.common import fsio
from repro.common.fsio import atomic_write, fsync_directory


class TestFsyncDirectory:
    def test_real_directory_returns_true(self, tmp_path):
        assert fsync_directory(tmp_path) is True

    def test_missing_directory_returns_false(self, tmp_path):
        assert fsync_directory(tmp_path / "nope") is False


class TestAtomicWrite:
    def test_writes_bytes_and_returns_writer_result(self, tmp_path):
        path = tmp_path / "out.bin"

        def writer(stream):
            stream.write(b"payload")
            return 42

        assert atomic_write(path, writer) == 42
        assert path.read_bytes() == b"payload"
        assert not (tmp_path / "out.bin.tmp").exists()

    def test_failure_leaves_destination_untouched(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"previous")

        def writer(stream):
            stream.write(b"half-writ")
            raise RuntimeError("disk on fire")

        with pytest.raises(RuntimeError):
            atomic_write(path, writer)
        assert path.read_bytes() == b"previous"
        assert not (tmp_path / "out.bin.tmp").exists()

    def test_replaces_existing_file_atomically(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        atomic_write(path, lambda stream: stream.write(b"new"))
        assert path.read_bytes() == b"new"

    def test_fsyncs_file_and_parent_directory(self, tmp_path, monkeypatch):
        synced_fds = []
        dir_syncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            fsio.os, "fsync", lambda fd: (synced_fds.append(fd), real_fsync(fd))
        )
        monkeypatch.setattr(
            fsio,
            "fsync_directory",
            lambda path: (dir_syncs.append(os.fspath(path)), True)[1],
        )
        atomic_write(tmp_path / "out.bin", lambda stream: stream.write(b"x"))
        assert len(synced_fds) == 1  # the tmp file, before the rename
        assert dir_syncs == [str(tmp_path)]  # the parent, after the rename
