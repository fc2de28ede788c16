"""In-process primary/replica pairs: propagation, resync, lag, promotion."""

import asyncio
import io
import os
import random
import socket
import time

import pytest

from repro.common.framing import OP_SET, SEGMENT_MAGIC, encode_record, end_record
from repro.core import SimpleKVCache
from repro.core.snapshot import iter_cache_items, write_snapshot
from tests.nzone.plain import PlainZone
from repro.core.config import ZExpanderConfig
from repro.core.sharded import ShardedZExpander
from repro.common.errors import ReadOnlyReplicaError, ReplicaLaggingError
from repro.common.rng import RetryPolicy
from repro.replication import wire
from repro.durability.journal import JournalConfig, JournalWriter, list_segments
from repro.replication.replica import (
    HARD_LAG_FACTOR,
    MAX_LAG_BYTES,
    ReplicationClient,
)
from repro.server.client import MemcacheClient
from repro.server.server import CacheServer, ServerConfig
from tests.durability.test_scrub import flip


@pytest.fixture
def fast_redial(monkeypatch):
    """The replica re-dials within 50 ms instead of up to 2 s."""
    monkeypatch.setattr(
        "repro.replication.replica.RECONNECT",
        RetryPolicy(backoff_base=0.01, backoff_cap=0.05),
    )


def make_cache(capacity=512 * 1024, shards=2, seed=11):
    return ShardedZExpander(
        ZExpanderConfig(total_capacity=capacity, seed=seed), num_shards=shards
    )


async def start_primary(journal_dir, cache=None, **kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("fsync", "always")
    kwargs.setdefault("repl_port", 0)
    kwargs.setdefault("journal_segment_bytes", 1024)
    kwargs.setdefault("checkpoint_bytes", 4096)
    server = CacheServer(
        cache if cache is not None else make_cache(),
        ServerConfig(journal_dir=str(journal_dir), **kwargs),
    )
    await server.start()
    task = asyncio.create_task(server.run())
    return server, task


async def start_replica(primary_repl_port, cache=None, **kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("stale_grace", 0.4)
    server = CacheServer(
        cache if cache is not None else make_cache(),
        ServerConfig(
            role="replica",
            primary_host="127.0.0.1",
            primary_port=primary_repl_port,
            **kwargs,
        ),
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


async def send(writer, reader, payload, reply_lines=1):
    writer.write(payload)
    await writer.drain()
    lines = []
    for _ in range(reply_lines):
        lines.append(await reader.readline())
    return b"".join(lines)


async def drain(server, task):
    server.begin_drain()
    return await task


class TestPropagation:
    def test_sets_and_deletes_reach_the_replica(self, tmp_path):
        async def go():
            primary, ptask = await start_primary(tmp_path)
            replica, rtask = await start_replica(primary.repl_source.port)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", primary.port
            )
            for i in range(30):
                reply = await send(
                    writer, reader, b"set pk%03d 0 0 6\r\nval%03d\r\n" % (i, i)
                )
                assert reply == b"STORED\r\n"
            for i in range(5):
                assert (
                    await send(writer, reader, b"delete pk%03d\r\n" % i)
                    == b"DELETED\r\n"
                )
            # The replica applies through the same cache API, so its
            # contents are directly checkable without the read gate.
            assert await wait_until(
                lambda: replica.cache.get(b"pk029") == b"val029"
                and replica.cache.get(b"pk000") is None
            )
            for i in range(5, 30):
                assert replica.cache.get(b"pk%03d" % i) == b"val%03d" % i
            writer.close()
            assert await drain(replica, rtask) is not None
            assert await drain(primary, ptask) is not None

        asyncio.run(go())

    def test_replica_refuses_client_writes(self, tmp_path):
        async def go():
            primary, ptask = await start_primary(tmp_path)
            replica, rtask = await start_replica(primary.repl_source.port)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", replica.port
            )
            reply = await send(writer, reader, b"set k 0 0 1\r\nv\r\n")
            assert b"read-only" in reply
            reply = await send(writer, reader, b"delete k\r\n")
            assert b"read-only" in reply
            writer.close()
            await drain(replica, rtask)
            await drain(primary, ptask)

        asyncio.run(go())

    def test_cut_link_sheds_reads_past_the_grace(self, tmp_path):
        async def go():
            primary, ptask = await start_primary(tmp_path)
            replica, rtask = await start_replica(
                primary.repl_source.port, stale_grace=0.3
            )
            assert await wait_until(lambda: replica.repl_client.connected)
            # Kill the primary outright: stream dead, no more heartbeats.
            await drain(primary, ptask)
            await asyncio.sleep(0.6)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", replica.port
            )
            reply = await send(writer, reader, b"get anything\r\n")
            assert b"lagging" in reply
            writer.close()
            await drain(replica, rtask)

        asyncio.run(go())


class TestOnePath:
    def test_a_burst_past_a_megabyte_ships_each_record_once(self, tmp_path):
        """Well over 1 MiB of SETs inside one flush tick (eight
        connections, each a pipeline of 64 KiB values): every journal
        append reaches the replica exactly once, in order.  (A sender
        with an in-memory queue beside the file overflowed here, resumed
        from where it had last read the file rather than from what it
        had sent, and walked the replica back through old versions.)"""

        async def go():
            primary, ptask = await start_primary(
                tmp_path,
                cache=make_cache(capacity=16 << 20),
                fsync="never",
                journal_segment_bytes=1 << 20,
                checkpoint_bytes=0,
            )
            replica, rtask = await start_replica(
                primary.repl_source.port, cache=make_cache(capacity=16 << 20)
            )
            sent = primary.replication_stats
            applied = replica.replication_stats
            assert await wait_until(lambda: applied.snapshots_applied == 1)
            client = replica.repl_client
            positions = []
            apply = client._apply

            def recording_apply(*record):
                positions.append(client.position)
                apply(*record)

            client._apply = recording_apply

            def appends():
                return primary.durability.stats.journal_appends

            links = [
                await asyncio.open_connection("127.0.0.1", primary.port)
                for _ in range(8)
            ]
            reader, writer = links[0]
            for i in range(40):  # a trickle: about one record per tick
                reply = await send(
                    writer, reader, b"set hot%d 0 0 6\r\nold%03d\r\n" % (i % 10, i)
                )
                assert reply == b"STORED\r\n"
                await asyncio.sleep(0.006)
            assert await wait_until(lambda: sent.records_sent == appends())
            for lane, (_reader, writer) in enumerate(links):
                writer.write(
                    b"".join(
                        b"set hot%d 0 0 65536\r\n%s\r\n"
                        % (i % 10, b"%02d%02d" % (lane, i) * 16384)
                        for i in range(20)
                    )
                )
            for reader, writer in links:
                await writer.drain()
                for _ in range(20):
                    assert await reader.readline() == b"STORED\r\n"
            assert appends() == 40 + 8 * 20
            assert await wait_until(lambda: applied.records_applied >= appends())
            await asyncio.sleep(0.05)  # anything re-shipped would land now
            assert sent.records_sent == appends()
            assert applied.records_applied == appends()
            assert positions == sorted(positions)
            assert client.position == primary.durability.writer.position
            for i in range(10):
                value = primary.cache.get(b"hot%d" % i)
                assert value is not None and len(value) == 65536
                assert replica.cache.get(b"hot%d" % i) == value
            for _reader, writer in links:
                writer.close()
            await drain(replica, rtask)
            await drain(primary, ptask)

        asyncio.run(go())

    def test_an_expired_item_leaves_the_replica_too(self, tmp_path):
        """The stream carries no TTL: the primary's expiry reaches the
        replica (and the journal) as a delete."""

        async def go():
            primary, ptask = await start_primary(tmp_path)
            replica, rtask = await start_replica(primary.repl_source.port)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", primary.port
            )
            assert (
                await send(writer, reader, b"set brief 0 1 5\r\nhello\r\n")
                == b"STORED\r\n"
            )
            assert await wait_until(
                lambda: replica.cache.get(b"brief") == b"hello"
            )
            primary.cache.clock.advance(2.0)
            assert await send(writer, reader, b"get brief\r\n") == b"END\r\n"
            assert await wait_until(lambda: replica.cache.get(b"brief") is None)
            # The set and the expiry's delete: recovery agrees too.
            assert primary.durability.stats.journal_appends == 2
            writer.close()
            await drain(replica, rtask)
            await drain(primary, ptask)

        asyncio.run(go())


class TestHostileReplica:
    def test_malformed_frames_drop_the_session_not_the_primary(self, tmp_path):
        """A bad HELLO or a garbage ACK ends that replica's session —
        by name (ReplicationError), not through a catch-all — while the
        primary keeps serving and the next replica connects."""

        async def closed_by_primary(reader):
            # read() returns only at EOF, after whatever frames the
            # primary had queued before it saw the bad one.
            await asyncio.wait_for(reader.read(), 5.0)

        async def go():
            primary, ptask = await start_primary(tmp_path)
            source = primary.repl_source
            # A well-framed HELLO whose position body is the wrong size.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", source.port
            )
            writer.write(wire.encode_frame(wire.HELLO, b"short"))
            await closed_by_primary(reader)
            writer.close()
            assert source.stats.replica_connects == 0
            # A proper HELLO, then an ACK frame whose CRC is wrong.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", source.port
            )
            writer.write(wire.encode_frame(wire.HELLO, wire.encode_position(0, 0)))
            await writer.drain()
            assert await wait_until(lambda: source.replicas_connected == 1)
            ack = bytearray(wire.encode_frame(wire.ACK, wire.encode_ack(1, 0, 0)))
            ack[-1] ^= 0xFF
            writer.write(bytes(ack))
            await closed_by_primary(reader)
            writer.close()
            assert await wait_until(lambda: source.replicas_connected == 0)

            creader, cwriter = await asyncio.open_connection(
                "127.0.0.1", primary.port
            )
            assert (
                await send(cwriter, creader, b"set pk 0 0 3\r\nval\r\n")
                == b"STORED\r\n"
            )
            cwriter.close()
            replica, rtask = await start_replica(source.port)
            assert await wait_until(lambda: replica.cache.get(b"pk") == b"val")
            await drain(replica, rtask)
            assert await drain(primary, ptask) == 0

        asyncio.run(go())


    @pytest.mark.usefixtures("fast_redial")
    def test_a_record_that_does_not_decode_is_never_skipped(self):
        """A CRC-whole RECORD whose payload is not a record ends the
        session at the position before it, so the re-dial asks for that
        record again.  It used to be counted as an apply error and
        stepped over, laying every later record over a hole."""

        async def go():
            hellos, writers = [], []

            async def primary(reader, writer):
                writers.append(writer)
                hello = await wire.read_frame(reader)
                hellos.append(wire.decode_position(hello[1]))
                writer.write(wire.encode_record_frame(1, 40, b"\xffnot a record"))
                await writer.drain()
                await reader.read()  # until the replica hangs up

            server = await asyncio.start_server(primary, "127.0.0.1", 0)
            client = ReplicationClient(
                SimpleKVCache(PlainZone(1 << 20)),
                "127.0.0.1",
                server.sockets[0].getsockname()[1],
            )
            client.start()
            try:
                assert await wait_until(lambda: len(hellos) >= 2), client.stats
                assert hellos[:2] == [(0, 0), (0, 0)]
                assert client.stats.records_applied == 0
            finally:
                await client.stop()
                server.close()
                await server.wait_closed()
                for w in writers:
                    w.close()

        asyncio.run(go())


class TestSnapshotResync:
    def test_late_joiner_resyncs_and_drops_stale_keys(self, tmp_path):
        async def go():
            primary, ptask = await start_primary(
                tmp_path, journal_segment_bytes=512, checkpoint_bytes=2048
            )
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", primary.port
            )
            # Enough traffic that the primary checkpoints and prunes: a
            # (0, 0) joiner can then only be served by a snapshot.
            for i in range(120):
                value = b"x" * 40
                reply = await send(
                    writer,
                    reader,
                    b"set warm%04d 0 0 %d\r\n%s\r\n" % (i, len(value), value),
                )
                assert reply == b"STORED\r\n"
            assert primary.durability.stats.checkpoints_written >= 1

            # A replica that thinks it already knows something: its bogus
            # key must not survive the resync (it may have been deleted
            # on the primary while this replica was away).
            stale_cache = make_cache()
            stale_cache.set(b"bogus-key", b"stale bytes")
            replica, rtask = await start_replica(
                primary.repl_source.port, cache=stale_cache
            )
            assert await wait_until(
                lambda: replica.replication_stats.snapshots_applied >= 1
                and replica.cache.get(b"warm0119") == b"x" * 40
                and replica.cache.get(b"bogus-key") is None
            )
            writer.close()
            await drain(replica, rtask)
            await drain(primary, ptask)

        asyncio.run(go())


    def test_a_journaled_replica_restarts_with_exactly_the_image(self, tmp_path):
        """A replica with its own journal directory is resynced, killed
        (no final checkpoint) and restarted from that directory: it holds
        exactly the primary's keys, so the reset's deletes reached its
        journal, not only its cache."""
        own = str(tmp_path / "replica")

        async def go():
            # The replica's directory starts with a key of its own.
            before, task = await start_primary(own, repl_port=None)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", before.port
            )
            assert (
                await send(writer, reader, b"set doomed 0 0 4\r\nlost\r\n")
                == b"STORED\r\n"
            )
            writer.close()
            assert await drain(before, task) == 0

            primary, ptask = await start_primary(
                tmp_path / "primary",
                journal_segment_bytes=512,
                checkpoint_bytes=2048,
            )
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", primary.port
            )
            for i in range(60):
                reply = await send(
                    writer, reader, b"set warm%04d 0 0 5\r\nvalue\r\n" % i
                )
                assert reply == b"STORED\r\n"
            writer.close()
            expected = dict(iter_cache_items(primary.cache))
            replica, rtask = await start_replica(
                primary.repl_source.port, journal_dir=own, fsync="always"
            )
            assert replica.cache.get(b"doomed") == b"lost"
            assert await wait_until(
                lambda: replica.replication_stats.snapshots_applied >= 1
                and dict(iter_cache_items(replica.cache)) == expected
            )
            # Killed, not drained: the restart replays the journal.
            rtask.cancel()
            replica._server.close()
            await replica._server.wait_closed()
            await replica.repl_client.stop()
            replica.durability.writer.close()
            await drain(primary, ptask)

            restarted, task = await start_primary(own, repl_port=None)
            assert restarted.durability.stats.replayed_records > 0
            assert dict(iter_cache_items(restarted.cache)) == expected
            assert await drain(restarted, task) == 0

        asyncio.run(go())

    def test_rot_past_a_replica_resyncs_it_from_memory(self, tmp_path):
        """Rot in a closed segment the replica has yet to read, with no
        scrub on the primary to repair it: the sender cannot ship past
        it, so it resyncs the replica from memory, once.  The session
        used to end on the rot instead, every re-dial ended the same
        way, and the replica shed every GET for as long as the rot
        stayed on disk."""

        async def go():
            primary, ptask = await start_primary(
                tmp_path, checkpoint_bytes=0, scrub_interval=0
            )
            replica, rtask = await start_replica(primary.repl_source.port)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", primary.port
            )

            async def sets(first, count):
                writer.write(
                    b"".join(
                        b"set rot%04d 0 0 12\r\nvalue-%06d\r\n" % (i, i)
                        for i in range(first, first + count)
                    )
                )
                await writer.drain()
                for _ in range(count):
                    assert await reader.readline() == b"STORED\r\n"

            await sets(0, 50)
            client = replica.repl_client
            assert await wait_until(
                lambda: client.position == primary.durability.writer.position
            )
            await client.stop()
            await sets(50, 400)
            segment = client.position[0]
            later = [
                path for seq, path in list_segments(str(tmp_path))
                if seq > segment
            ]
            assert len(later) >= 2  # the rotten one is closed
            flip(later[0], 40)
            resyncs = client.stats.snapshots_applied

            client.start()
            assert await wait_until(
                lambda: client.pressure_level() == 0
                and sorted(replica.store.walk()) == sorted(primary.store.walk()),
                timeout=2.0,
            ), client.stats
            assert client.stats.snapshots_applied == resyncs + 1
            assert len(list(replica.store.walk())) == 450
            writer.close()
            await drain(replica, rtask)
            await drain(primary, ptask)

        asyncio.run(go())

    @pytest.mark.usefixtures("fast_redial")
    @pytest.mark.parametrize("damage", ["cut", "wrong_count", "unsealed"])
    def test_damaged_image_is_refused_whole_then_redialed(self, damage):
        """A resync image that does not parse, whose end record does not
        count the records before it (one dropped from the middle leaves
        every frame whole), or that has no end record, is refused before
        anything is applied: the session drops, the replica keeps its
        old contents and re-dials, and the next (whole) image replaces
        them.  Once the cut image killed the client task (no re-dial)
        after 9 of 10 items were applied; the dropped record was caught
        only by a count SNAP_END carried beside the image."""
        source = SimpleKVCache(PlainZone(1 << 20))
        for i in range(10):
            source.set(b"new%02d" % i, b"value-%02d" % i * 4)
        buffer = io.BytesIO()
        count = write_snapshot(source, buffer)
        image = buffer.getvalue()
        items_end = len(image) - len(end_record(count))
        record = len(encode_record(OP_SET, b"new00", b"value-00" * 4))
        middle = len(SEGMENT_MAGIC) + 4 * record
        bad = {
            "cut": image[: items_end - 7],
            "wrong_count": image[:middle] + image[middle + record :],
            "unsealed": image[:items_end],
        }[damage]

        async def go():
            cache = SimpleKVCache(PlainZone(1 << 20))
            cache.set(b"old", b"what the replica had")
            seen_after_refusal = []
            writers = []

            async def primary(reader, writer):
                writers.append(writer)
                assert (await wire.read_frame(reader))[0] == wire.HELLO
                first = len(writers) == 1
                body = bad if first else image
                writer.write(
                    wire.encode_frame(
                        wire.SNAP_BEGIN, wire.encode_position(3, 8)
                    )
                    + wire.encode_frame(wire.SNAP_CHUNK, body[:100])
                    + wire.encode_frame(wire.SNAP_CHUNK, body[100:])
                    + wire.encode_frame(wire.SNAP_END)
                )
                await writer.drain()
                if first:
                    # The replica hangs up on the refused image.
                    assert await asyncio.wait_for(reader.read(), 5.0) == b""
                    seen_after_refusal.append(dict(iter_cache_items(cache)))

            server = await asyncio.start_server(primary, "127.0.0.1", 0)
            client = ReplicationClient(
                cache,
                "127.0.0.1",
                server.sockets[0].getsockname()[1],
            )
            client.start()
            try:
                assert await wait_until(
                    lambda: client.stats.snapshots_applied == 1
                ), client.stats
                assert seen_after_refusal == [
                    {b"old": b"what the replica had"}
                ]
                assert client.stats.source_connects == 2
                assert client.position == (3, 8)
                assert dict(iter_cache_items(cache)) == dict(
                    iter_cache_items(source)
                )
            finally:
                await client.stop()
                server.close()
                await server.wait_closed()
                for w in writers:
                    w.close()

        asyncio.run(go())


class TestLagPressure:
    def test_pressure_levels_follow_lag_and_silence(self):
        client = ReplicationClient(
            SimpleKVCache(PlainZone(1 << 20)),
            "127.0.0.1",
            1,
            stale_grace=0.5,
        )
        # Never connected: shed everything.
        assert client.pressure_level() == 2
        now = time.monotonic()
        client.connected = True
        client.last_contact = now
        assert client.pressure_level(now) == 0
        # Heartbeat says the primary sent more than we applied.
        sent = MAX_LAG_BYTES + MAX_LAG_BYTES // 2
        client._conn_applied = 0
        client._heartbeat = (sent, 0, 1, 0)
        assert client.lag_bytes() == sent
        assert client.pressure_level(now) == 1  # past max, under hard (4x)
        backlog = HARD_LAG_FACTOR * MAX_LAG_BYTES
        client._heartbeat = (sent, backlog, 1, 0)
        assert client.lag_bytes() == sent + backlog
        assert client.pressure_level(now) == 2  # past hard_lag
        # Catching up drops the pressure again.
        client._heartbeat = (sent, 0, 1, 0)
        client._conn_applied = sent - 100
        assert client.lag_bytes() == 100
        assert client.pressure_level(now) == 0
        # A healthy-looking lag still sheds once the link goes silent.
        assert client.pressure_level(now + 1.0) == 2


class TestPromotion:
    def test_promote_with_catch_up_takes_writes(self, tmp_path):
        async def go():
            primary, ptask = await start_primary(tmp_path)
            replica, rtask = await start_replica(primary.repl_source.port)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", primary.port
            )
            for i in range(40):
                reply = await send(
                    writer, reader, b"set d%03d 0 0 6\r\nnum%03d\r\n" % (i, i)
                )
                assert reply == b"STORED\r\n"
            writer.close()
            await drain(primary, ptask)  # the primary is gone

            reader, writer = await asyncio.open_connection(
                "127.0.0.1", replica.port
            )
            reply = await send(
                writer,
                reader,
                b"promote %s\r\n" % str(tmp_path).encode(),
            )
            assert reply == b"PROMOTED\r\n"
            assert replica.config.role == "primary"
            assert replica.replication_stats.promotions == 1
            # Every write the dead primary acked, plus new ones.
            for i in range(40):
                assert replica.cache.get(b"d%03d" % i) == b"num%03d" % i
            assert (
                await send(writer, reader, b"set fresh 0 0 3\r\nnew\r\n")
                == b"STORED\r\n"
            )
            assert (
                await send(writer, reader, b"get fresh\r\n", reply_lines=3)
                == b"VALUE fresh 0 3\r\nnew\r\nEND\r\n"
            )
            writer.close()
            await drain(replica, rtask)

        asyncio.run(go())

    def test_pipelined_commands_wait_for_the_promotion(self, tmp_path):
        """``promote`` is dispatched like any verb: commands pipelined
        behind it in the same segment are answered after ``PROMOTED``,
        in order, by the node it made — a primary that takes writes."""

        async def go():
            primary, ptask = await start_primary(tmp_path)
            replica, rtask = await start_replica(primary.repl_source.port)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", primary.port
            )
            assert (
                await send(writer, reader, b"set old 0 0 3\r\nwas\r\n")
                == b"STORED\r\n"
            )
            assert await wait_until(lambda: replica.cache.get(b"old") == b"was")
            writer.close()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", replica.port
            )
            # A replica refuses writes until promoted.
            assert b"read-only" in await send(
                writer, reader, b"set early 0 0 1\r\nx\r\n"
            )
            writer.write(
                b"get old\r\npromote\r\nset new 0 0 2\r\nhi\r\n"
                b"get new\r\nget old\r\nversion\r\n"
            )
            await writer.drain()
            replies = await asyncio.wait_for(reader.readuntil(b"VERSION"), 10.0)
            assert replies == (
                b"VALUE old 0 3\r\nwas\r\nEND\r\n"
                b"PROMOTED\r\n"
                b"STORED\r\n"
                b"VALUE new 0 2\r\nhi\r\nEND\r\n"
                b"VALUE old 0 3\r\nwas\r\nEND\r\n"
                b"VERSION"
            )
            assert replica.config.role == "primary"
            assert replica.replication_stats.read_only_rejects == 1
            writer.close()
            await drain(replica, rtask)
            await drain(primary, ptask)

        asyncio.run(go())

    def test_catch_up_over_a_hole_reports_it(self, tmp_path):
        """A dead primary's directory missing a middle segment: the
        promoted replica recovers up to the hole, as ``cli serve`` on
        that directory would refuse to, and says so.  Its incidents
        used to hold only ``promoted to primary (catch-up full: …)``."""
        writer = JournalWriter(
            JournalConfig(directory=str(tmp_path), segment_bytes=256)
        )
        writer.append_set(b"k000", b"x" * 48)
        writer.append_delete(b"k000")
        for i in range(1, 40):
            writer.append_set(b"k%03d" % i, b"x" * 48)
        writer.close()
        segments = list_segments(str(tmp_path))
        assert len(segments) >= 3
        os.remove(segments[len(segments) // 2][1])
        with socket.socket() as probe:  # a port nobody listens on
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]

        async def go():
            replica, rtask = await start_replica(dead_port)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", replica.port
            )
            reply = await send(
                writer, reader, b"promote %s\r\n" % str(tmp_path).encode()
            )
            assert reply == b"PROMOTED\r\n"
            writer.close()
            holes = [line for line in replica.incidents if "journal hole" in line]
            assert holes and holes[0].startswith("promotion catch-up: ")
            assert replica.incidents[-1].startswith(
                "promoted to primary (catch-up full: "
            )
            assert replica.cache.get(b"k000") is None
            assert replica.cache.get(b"k039") is None  # past the hole
            await drain(replica, rtask)

        asyncio.run(go())

    def test_promote_refused_on_a_primary(self, tmp_path):
        async def go():
            primary, ptask = await start_primary(tmp_path)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", primary.port
            )
            reply = await send(writer, reader, b"promote\r\n")
            assert b"not a replica" in reply
            writer.close()
            await drain(primary, ptask)

        asyncio.run(go())


class TestThroughMemcacheClient:
    """The pair as a caller drives it: one pooled client per endpoint,
    the way ``cli chaos --replication`` and ``cli promote`` do."""

    def test_a_replica_serves_what_it_applied(self, tmp_path):
        async def go():
            primary, ptask = await start_primary(tmp_path)
            replica, rtask = await start_replica(primary.repl_source.port)
            writes = MemcacheClient(port=primary.port)
            reads = MemcacheClient(port=replica.port, retry=RetryPolicy(max_attempts=3))
            try:
                assert await writes.set(b"fan", b"out", flags=7)
                assert await wait_until(lambda: replica.cache.get(b"fan") == b"out")
                assert await reads.get(b"fan") == b"out"
                assert await reads.get_many([b"fan", b"absent"]) == {b"fan": b"out"}
                with pytest.raises(ReadOnlyReplicaError):
                    await reads.set(b"fan", b"in")
                # Refused once, not retried: the answer cannot change.
                assert replica.replication_stats.read_only_rejects == 1
            finally:
                await writes.close()
                await reads.close()
            await drain(replica, rtask)
            await drain(primary, ptask)

        asyncio.run(go())

    def test_a_lagging_replica_raises_at_once(self, tmp_path):
        async def go():
            primary, ptask = await start_primary(tmp_path)
            replica, rtask = await start_replica(
                primary.repl_source.port, stale_grace=0.3
            )
            assert await wait_until(lambda: replica.repl_client.connected)
            await drain(primary, ptask)
            await asyncio.sleep(0.6)
            reads = MemcacheClient(port=replica.port, retry=RetryPolicy(max_attempts=3))
            try:
                with pytest.raises(ReplicaLaggingError):
                    await reads.get(b"anything")
                assert replica.replication_stats.lagging_rejects == 1
            finally:
                await reads.close()
            await drain(replica, rtask)

        asyncio.run(go())

    def test_promote_then_write_on_one_client(self, tmp_path):
        async def go():
            primary, ptask = await start_primary(tmp_path)
            replica, rtask = await start_replica(primary.repl_source.port)
            writes = MemcacheClient(port=primary.port)
            client = MemcacheClient(port=replica.port)
            try:
                assert await writes.set(b"before", b"old")
                await writes.close()
                await drain(primary, ptask)  # the primary dies

                await client.promote(str(tmp_path))
                assert replica.config.role == "primary"
                assert await client.set(b"after", b"new")
                assert await client.get(b"after") == b"new"
                # Every write the dead primary acked survived.
                assert await client.get(b"before") == b"old"
            finally:
                await client.close()
            await drain(replica, rtask)

        asyncio.run(go())


class TestCatchUpFromDirectory:
    """``ReplicationClient.catch_up``: from the client's own position,
    through its one applier, booked on its own stats."""

    def _build_journal(self, tmp_path):
        writer = JournalWriter(
            JournalConfig(
                directory=str(tmp_path), segment_bytes=512, fsync="never"
            )
        )
        for i in range(25):
            writer.append_set(b"c%03d" % i, b"val-%03d" % i)
        writer.append_delete(b"c000")
        end = writer.position
        writer.close()
        return end

    def test_full_replay_from_zero_position(self, tmp_path):
        self._build_journal(tmp_path)
        cache = SimpleKVCache(PlainZone(1 << 20))
        cache.set(b"leftover", b"should vanish")
        client = ReplicationClient(cache, "127.0.0.1", 0)
        applied, mode, incidents = client.catch_up(str(tmp_path))
        assert (applied, mode, incidents) == (26, "full", [])
        assert client.stats.catch_up_records == 26
        assert client.stats.apply_errors == 0
        assert cache.get(b"leftover") is None
        assert cache.get(b"c000") is None  # the delete replayed too
        assert cache.get(b"c024") == b"val-024"

    def test_tail_replay_from_known_position(self, tmp_path):
        from repro.common.framing import apply_record, decode_payload
        from repro.replication.tailer import JournalTailer

        end = self._build_journal(tmp_path)
        # Apply the first half by tailing, then catch up from there.
        cache = SimpleKVCache(PlainZone(1 << 20))
        client = ReplicationClient(cache, "127.0.0.1", 0)
        tailer = JournalTailer(str(tmp_path), 1, 0)
        applied = 0
        while applied < 10:
            for payload, seg, end_offset in tailer.read_batch(1):
                apply_record(cache, *decode_payload(payload))
                client.position = (seg, end_offset)
                applied += 1
        tailer.close()
        caught, mode, incidents = client.catch_up(str(tmp_path))
        # The remaining 15 sets + 1 delete.
        assert (caught, mode, incidents) == (16, "tail", [])
        assert client.stats.catch_up_records == 16
        assert client.position == end
        assert cache.get(b"c000") is None
        assert cache.get(b"c024") == b"val-024"


class TestReconnectBackoff:
    def test_a_primary_that_hangs_up_at_once_is_not_hammered(self):
        """A session that applies nothing proves nothing: the re-dial
        backs off as after a refused connect.  The counter used to reset
        on every TCP accept, so such a primary was dialled every <= 50
        ms (about 40 times a second)."""

        async def go():
            accepted = []

            async def hang_up(reader, writer):
                accepted.append(time.monotonic())
                writer.close()

            server = await asyncio.start_server(hang_up, "127.0.0.1", 0)
            client = ReplicationClient(
                SimpleKVCache(PlainZone(1 << 20)),
                "127.0.0.1",
                server.sockets[0].getsockname()[1],
                rng=random.Random(5),
            )
            client.start()
            try:
                await asyncio.sleep(1.0)
            finally:
                await client.stop()
                server.close()
                await server.wait_closed()
            assert 2 <= len(accepted) <= 10, len(accepted)

        asyncio.run(go())


class TestSilentLinkWatchdog:
    @pytest.mark.usefixtures("fast_redial")
    def test_half_open_link_is_cut_and_redialed(self):
        """A primary that accepts, then goes silent forever (half-open
        TCP: SIGKILLed peer behind a middlebox that swallows the close)
        must not pin the replica to a dead stream."""

        async def go():
            accepted = []

            async def mute_primary(reader, writer):
                accepted.append(writer)
                # Read the HELLO and then say nothing, close nothing.
                await reader.read(64)
                await asyncio.sleep(30)

            server = await asyncio.start_server(
                mute_primary, "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            client = ReplicationClient(
                SimpleKVCache(PlainZone(1 << 20)),
                "127.0.0.1",
                port,
                silence_timeout=0.3,
            )
            client.start()
            try:
                assert await wait_until(
                    lambda: client.stats.silent_link_drops >= 2, timeout=10.0
                ), client.stats
                assert client.stats.source_connects >= 2
                assert len(accepted) >= 2
            finally:
                await client.stop()
                server.close()
                await server.wait_closed()
                # A dial that landed just before the stop has a handler
                # that has not run yet: let it register its writer.
                await asyncio.sleep(0.05)
                for w in accepted:
                    w.close()

        asyncio.run(go())
