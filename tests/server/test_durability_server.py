"""Server + durability integration: recovery, stats, graceful close.

An in-process "crash" here means abandoning the server without draining
it — connections dropped, no final checkpoint, journal left as-is — which
is exactly what the on-disk state looks like after a SIGKILL (the real
SIGKILL discipline lives in tests/server/test_crash_harness.py).
"""

import asyncio
import os

from repro.common.framing import end_record
from repro.core.config import ZExpanderConfig
from repro.core.sharded import ShardedZExpander
from repro.core.snapshot import write_snapshot
from repro.core import SimpleKVCache
from repro.durability.journal import list_segments
from repro.durability.manager import list_checkpoints
from tests.nzone.plain import PlainZone
from repro.server.server import CacheServer, ServerConfig
from tests.durability.test_scrub import flip
from tests.metrics.exposition import to_prometheus


def make_cache(capacity=256 * 1024, shards=2, seed=11):
    return ShardedZExpander(
        ZExpanderConfig(total_capacity=capacity, seed=seed), num_shards=shards
    )


async def send(writer, reader, payload, reply_lines=1):
    writer.write(payload)
    await writer.drain()
    lines = []
    for _ in range(reply_lines):
        lines.append(await reader.readline())
    return b"".join(lines)


async def started_server(journal_dir, **config_kwargs):
    config_kwargs.setdefault("port", 0)
    config_kwargs.setdefault("fsync", "always")
    server = CacheServer(
        make_cache(), ServerConfig(journal_dir=str(journal_dir), **config_kwargs)
    )
    await server.start()
    task = asyncio.create_task(server.run())
    return server, task


async def wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return predicate()


async def drain(server, task):
    server.begin_drain()
    return await task


async def abandon(server, task):
    """Stop as a killed process would: no drain, no final checkpoint, not
    a byte more in the journal — only the OS handles a dead process
    could not hold are released, so the test leaks none."""
    task.cancel()
    server._server.close()
    await server._server.wait_closed()
    server.durability.writer.close()


class TestRecoveryAcrossAbandon:
    def test_acked_writes_survive_an_undrained_stop(self, tmp_path):
        async def first_life():
            server, task = await started_server(tmp_path)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            for i in range(40):
                key = b"k%03d" % i
                assert (
                    await send(
                        writer, reader, b"set %s 0 0 5\r\nv-%03d\r\n" % (key, i)
                    )
                    == b"STORED\r\n"
                )
            for i in range(10):
                assert (
                    await send(writer, reader, b"delete k%03d\r\n" % i)
                    == b"DELETED\r\n"
                )
            # Abandon: close the socket and cancel the serve task without
            # any drain — no final checkpoint.
            writer.close()
            await abandon(server, task)

        async def second_life():
            server, task = await started_server(tmp_path)
            assert server.durability.stats.replayed_records == 50
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            for i in range(10):
                assert (
                    await send(writer, reader, b"get k%03d\r\n" % i)
                    == b"END\r\n"
                )
            for i in range(10, 40):
                reply = await send(
                    writer, reader, b"get k%03d\r\n" % i, reply_lines=3
                )
                assert reply == b"VALUE k%03d 0 5\r\nv-%03d\r\nEND\r\n" % (i, i)
            writer.close()
            assert await drain(server, task) == 0

        asyncio.run(first_life())
        asyncio.run(second_life())

    def test_graceful_drain_leaves_checkpoint_only_recovery(self, tmp_path):
        async def life():
            server, task = await started_server(tmp_path)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            for i in range(25):
                await send(writer, reader, b"set g%03d 0 0 2\r\nvv\r\n" % i)
            writer.close()
            assert await drain(server, task) == 0

        async def after():
            server, task = await started_server(tmp_path)
            stats = server.durability.stats
            # Everything came from the final checkpoint; the journal tail
            # was empty.
            assert stats.recovered_items == 25
            assert stats.replayed_records == 0
            assert await drain(server, task) == 0

        asyncio.run(life())
        assert len(list_checkpoints(str(tmp_path))) == 1
        asyncio.run(after())


class TestScrubRepair:
    """The housekeeping scrub repairs rot by a checkpoint of the live
    store.  It used to move the rotten file aside, so the next restart
    refused the directory (a ``journal hole``) or came back nearly cold."""

    KEYS = 120

    async def _populate(self, server):
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(
            b"".join(
                b"set r%03d 0 0 40\r\n%s\r\n" % (i, b"%03d" % i * 13 + b"x")
                for i in range(self.KEYS)
            )
        )
        await writer.drain()
        for _ in range(self.KEYS):
            assert await reader.readline() == b"STORED\r\n"
        writer.close()

    def _rot_a_closed_segment(self, tmp_path):
        segments = list_segments(str(tmp_path))
        assert len(segments) >= 4
        _seq, path = segments[1]
        flip(path, 30)
        return os.path.basename(path)

    def test_rot_is_repaired_and_the_restart_serves_every_key(self, tmp_path):
        async def first_life():
            server, task = await started_server(
                tmp_path,
                scrub_interval=0.05,
                journal_segment_bytes=1024,
                checkpoint_bytes=0,
            )
            await self._populate(server)
            victim = self._rot_a_closed_segment(tmp_path)
            assert await wait_until(
                lambda: server.durability.stats.checkpoints_written == 1
            )
            scrubs = [i for i in server.incidents if i.startswith("scrub: ")]
            ((seq, _path),) = list_checkpoints(str(tmp_path))
            assert len(scrubs) == 1
            assert scrubs[0].startswith(f"scrub: {victim}: ")
            assert scrubs[0].endswith(f"; repaired by checkpoint {seq}")
            await abandon(server, task)

        async def second_life():
            server, task = await started_server(tmp_path)
            assert server.durability.last_recovery.clean
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            for i in range(self.KEYS):
                reply = await send(
                    writer, reader, b"get r%03d\r\n" % i, reply_lines=3
                )
                assert reply == b"VALUE r%03d 0 40\r\n%s\r\nEND\r\n" % (
                    i, b"%03d" % i * 13 + b"x"
                )
            writer.close()
            assert await drain(server, task) == 0

        asyncio.run(first_life())
        asyncio.run(second_life())

    def test_a_failed_repair_is_an_incident_and_the_next_pass_retries(
        self, tmp_path
    ):
        async def scenario():
            server, task = await started_server(
                tmp_path,
                scrub_interval=0.05,
                journal_segment_bytes=1024,
                checkpoint_bytes=0,
            )
            await self._populate(server)
            durability = server.durability
            checkpoint = durability.checkpoint
            calls = []

            def failing_once(store):
                calls.append(store)
                if len(calls) == 1:
                    raise OSError("no space left on device")
                return checkpoint(store)

            durability.checkpoint = failing_once
            self._rot_a_closed_segment(tmp_path)
            assert await wait_until(lambda: len(calls) == 2)
            assert server.incidents[0] == (
                "checkpoint failed: no space left on device"
            )
            assert "repaired by checkpoint" in server.incidents[1]
            assert len(server.incidents) == 2
            assert not server._housekeeping.done()
            assert all(c is server.store for c in calls)
            assert await drain(server, task) == 0

        asyncio.run(scenario())


class TestStatsSurface:
    def test_wire_stats_carry_durability_counters(self, tmp_path):
        async def scenario():
            server, task = await started_server(tmp_path)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            await send(writer, reader, b"set s 0 0 1\r\nx\r\n")
            stats = server.stats_dict()
            assert stats["durability_journal_appends"] == 1
            assert stats["durability_fsyncs"] >= 1
            assert "durability_replayed_records" in stats
            assert "durability_torn_tail_records" in stats
            assert "durability_scrub_failures" in stats
            # And through the metrics registry.
            exposition = to_prometheus(server.registry, include_timing=False)
            assert "durability_journal_appends 1" in exposition
            writer.close()
            assert await drain(server, task) == 0

        asyncio.run(scenario())

    def test_volatile_server_has_no_durability_keys(self):
        async def scenario():
            server = CacheServer(make_cache(), ServerConfig(port=0))
            await server.start()
            task = asyncio.create_task(server.run())
            stats = server.stats_dict()
            assert not any(k.startswith("durability_") for k in stats)
            return await drain(server, task)

        assert asyncio.run(scenario()) == 0

    @staticmethod
    def _restart_from(path):
        """Warm-start a server from ``path``; (stats, incidents, exposition)."""

        async def scenario():
            server = CacheServer(
                make_cache(),
                ServerConfig(port=0, snapshot_path=str(path)),
            )
            await server.start()
            task = asyncio.create_task(server.run())
            seen = (
                server.stats_dict(),
                list(server.incidents),
                to_prometheus(server.registry, include_timing=False),
            )
            assert await drain(server, task) == 0
            return seen

        return asyncio.run(scenario())

    @staticmethod
    def _image(path, items=30):
        cache = SimpleKVCache(PlainZone(1 << 16))
        for i in range(items):
            cache.set(b"key:%04d" % i, b"value-%04d" % i)
        write_snapshot(cache, path)
        return path.read_bytes()

    def test_snapshot_truncation_surfaces_as_gauge(self, tmp_path):
        path = tmp_path / "warm.snap"
        data = self._image(path)
        # Tear the last item.
        path.write_bytes(data[: -len(end_record(30)) - 7])
        stats, incidents, exposition = self._restart_from(path)
        assert stats["snapshot_loaded"] == 29
        assert stats["snapshot_skipped"] == 1
        assert stats["snapshot_truncated"] == 1
        assert any("snapshot tail" in line for line in incidents)
        assert "server_snapshot_truncated 1" in exposition

    def test_a_cut_on_a_record_boundary_is_reported(self, tmp_path):
        """Every item whole, the end record gone: the restart keeps all
        30 and still says the image was short.  An unsealed image used
        to load as if nothing were missing."""
        path = tmp_path / "warm.snap"
        data = self._image(path)
        path.write_bytes(data[: -len(end_record(30))])
        stats, incidents, exposition = self._restart_from(path)
        assert stats["snapshot_loaded"] == 30
        assert stats["snapshot_truncated"] == 1
        assert incidents == [
            "snapshot tail skipped: image not sealed: no end record after "
            "the last item"
        ]
        assert "server_snapshot_truncated 1" in exposition

    def test_a_file_that_never_was_an_image_is_refused_whole(self, tmp_path):
        """A foreign file at the snapshot path (here: the pre-segment
        ``ZXSNAP01`` format) loads nothing, is one incident, and does not
        block startup — nor is it mistaken for a torn image."""
        path = tmp_path / "old.snap"
        path.write_bytes(
            b"ZXSNAP01" + (1).to_bytes(4, "big") * 2 + b"k" + b"v"
        )
        stats, incidents, _exposition = self._restart_from(path)
        assert stats["curr_items"] == 0
        assert stats["snapshot_loaded"] == 0
        assert stats["snapshot_truncated"] == 0
        assert stats["incidents"] == 1
        assert "snapshot load failed: bad segment magic" in incidents[0]
