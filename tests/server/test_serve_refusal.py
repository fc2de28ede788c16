"""A hole in journal history, or a refused configuration, must stop the
server before it serves.

Serving over a gap could resurrect deletes and hide acknowledged writes
— and a replica would then faithfully replicate the damage.  The server
layer refuses to start (JournalError), and ``cli serve`` turns that into
a clear message + exit code 2 instead of a listening socket.  A
configuration ``ServerConfig.validate`` refuses gets the same answer.
"""

import asyncio
import os
import subprocess
import sys

import pytest

from repro.common.errors import ConfigurationError, JournalError
from repro.core.config import ZExpanderConfig
from repro.core.sharded import ShardedZExpander
from repro.durability.journal import (
    JournalConfig,
    JournalWriter,
    list_segments,
)
from repro.experiments.cli import main
from repro.server.server import CacheServer, ServerConfig


def dig_hole(tmp_path):
    """A journal directory with a segment missing from the middle."""
    writer = JournalWriter(
        JournalConfig(directory=str(tmp_path), segment_bytes=256, fsync="never")
    )
    for i in range(60):
        writer.append_set(b"key-%04d" % i, b"x" * 48)
    writer.close()
    segments = list_segments(str(tmp_path))
    assert len(segments) >= 3, "scenario needs at least three segments"
    victim = segments[len(segments) // 2][1]
    os.remove(victim)
    return victim


class TestHoleRefusal:
    def test_server_start_raises(self, tmp_path):
        dig_hole(tmp_path)
        server = CacheServer(
            ShardedZExpander(
                ZExpanderConfig(total_capacity=256 * 1024, seed=3),
                num_shards=2,
            ),
            ServerConfig(port=0, journal_dir=str(tmp_path)),
        )
        with pytest.raises(JournalError, match="refusing to serve"):
            asyncio.run(server.start())

    def test_cli_serve_exits_2_with_clear_error(self, tmp_path, capsys):
        dig_hole(tmp_path)
        code = main(
            ["serve", "--port", "0", "--journal-dir", str(tmp_path)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "refusing to serve" in captured.err
        assert "journal hole" in captured.err
        # And it never got as far as binding a port.
        assert "serving memcached protocol" not in captured.out

    def test_intact_directory_still_serves(self, tmp_path):
        """The refusal is specific: no hole, no refusal."""
        writer = JournalWriter(
            JournalConfig(
                directory=str(tmp_path), segment_bytes=256, fsync="never"
            )
        )
        for i in range(30):
            writer.append_set(b"key-%04d" % i, b"x" * 48)
        writer.close()

        async def go():
            server = CacheServer(
                ShardedZExpander(
                    ZExpanderConfig(total_capacity=256 * 1024, seed=3),
                    num_shards=2,
                ),
                ServerConfig(port=0, journal_dir=str(tmp_path)),
            )
            await server.start()
            task = asyncio.create_task(server.run())
            assert server.cache.get(b"key-0029") == b"x" * 48
            server.begin_drain()
            await task

        asyncio.run(go())


class TestRefusedConfiguration:
    def test_snapshot_and_journal_are_two_bases(self, tmp_path):
        """One persistence base per server.  With both, a restart loaded
        the checkpoint over the older drain snapshot, which brought back
        every key deleted since that snapshot was written."""
        with pytest.raises(ConfigurationError, match="two persistence bases"):
            CacheServer(
                ShardedZExpander(
                    ZExpanderConfig(total_capacity=256 * 1024, seed=3),
                    num_shards=2,
                ),
                ServerConfig(
                    port=0,
                    snapshot_path=str(tmp_path / "drain.snap"),
                    journal_dir=str(tmp_path / "wal"),
                ),
            )

    @pytest.mark.parametrize(
        "flags",
        [
            ["--snapshot", "{tmp}/x.snap", "--journal-dir", "{tmp}/wal"],
            ["--role", "replica"],
            ["--repl-port", "0"],
        ],
        ids=["snapshot_and_journal", "replica_without_primary", "repl_without_journal"],
    )
    def test_cli_serve_exits_2_with_an_error_line(self, tmp_path, flags):
        """In a child process: a configuration that is not refused serves
        until killed, and the timeout says so."""
        child = subprocess.run(
            [sys.executable, "-m", "repro.experiments.cli", "serve", "--port", "0"]
            + [flag.format(tmp=tmp_path) for flag in flags],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert child.returncode == 2, child.stderr
        assert child.stderr.startswith("error: "), child.stderr
        assert "Traceback" not in child.stderr
        assert "serving memcached protocol" not in child.stdout
