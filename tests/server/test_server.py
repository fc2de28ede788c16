"""End-to-end server behaviour over real sockets (loopback, port 0)."""

import asyncio
import contextlib
import random
import socket

from repro.core.config import ZExpanderConfig
from repro.core.sharded import ShardedZExpander
from repro.core.zexpander import ZExpander
from repro.server.admission import AdmissionConfig, AdmissionController, TickClock
from repro.server.server import CacheServer, ServerConfig


def make_cache(capacity=256 * 1024, shards=0, seed=11):
    config = ZExpanderConfig(total_capacity=capacity, seed=seed)
    if shards:
        return ShardedZExpander(config, num_shards=shards)
    return ZExpander(config)


@contextlib.asynccontextmanager
async def running_server(cache=None, admission=None, **config_kwargs):
    """A started CacheServer on an ephemeral port, drained on exit."""
    if cache is None:
        cache = make_cache()
    config_kwargs.setdefault("port", 0)
    server = CacheServer(cache, ServerConfig(**config_kwargs), admission=admission)
    await server.start()
    task = asyncio.create_task(server.run())
    try:
        yield server
    finally:
        server.begin_drain()
        await task


async def send(writer, reader, payload, reply_lines=1):
    writer.write(payload)
    await writer.drain()
    lines = []
    for _ in range(reply_lines):
        lines.append(await reader.readline())
    return b"".join(lines)


class TestRequestResponse:
    def test_set_get_delete_roundtrip(self):
        async def scenario():
            async with running_server() as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                assert (
                    await send(writer, reader, b"set k 0 0 5\r\nhello\r\n")
                    == b"STORED\r\n"
                )
                reply = await send(writer, reader, b"get k\r\n", reply_lines=3)
                assert reply == b"VALUE k 0 5\r\nhello\r\nEND\r\n"
                assert (
                    await send(writer, reader, b"delete k\r\n") == b"DELETED\r\n"
                )
                assert (
                    await send(writer, reader, b"delete k\r\n")
                    == b"NOT_FOUND\r\n"
                )
                assert (
                    await send(writer, reader, b"get k\r\n") == b"END\r\n"
                )
                writer.close()

        asyncio.run(scenario())

    def test_pipelined_commands_one_segment(self):
        async def scenario():
            async with running_server() as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                # Three commands in a single write; replies come back in
                # order on one connection.
                writer.write(
                    b"set a 0 0 1\r\nA\r\nset b 0 0 1\r\nB\r\nget a b\r\n"
                )
                await writer.drain()
                assert await reader.readline() == b"STORED\r\n"
                assert await reader.readline() == b"STORED\r\n"
                assert await reader.readexactly(len(b"VALUE a 0 1\r\nA\r\n")) \
                    == b"VALUE a 0 1\r\nA\r\n"
                assert await reader.readexactly(len(b"VALUE b 0 1\r\nB\r\n")) \
                    == b"VALUE b 0 1\r\nB\r\n"
                assert await reader.readline() == b"END\r\n"
                writer.close()

        asyncio.run(scenario())

    def test_noreply_set_is_silent(self):
        async def scenario():
            async with running_server() as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                reply = await send(
                    writer,
                    reader,
                    b"set q 0 0 2 noreply\r\nhi\r\nget q\r\n",
                    reply_lines=3,
                )
                # The only reply is the GET's.
                assert reply == b"VALUE q 0 2\r\nhi\r\nEND\r\n"
                writer.close()

        asyncio.run(scenario())

    def test_stats_version_quit(self):
        async def scenario():
            async with running_server() as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"version\r\n")
                await writer.drain()
                assert (await reader.readline()).startswith(b"VERSION repro-zx/")
                writer.write(b"stats\r\n")
                await writer.drain()
                stats = {}
                while True:
                    line = (await reader.readline()).rstrip()
                    if line == b"END":
                        break
                    _s, name, value = line.split(b" ", 2)
                    stats[name] = value
                assert b"curr_items" in stats
                assert b"state" in stats and stats[b"state"] == b"healthy"
                writer.write(b"quit\r\n")
                await writer.drain()
                assert await reader.read() == b""  # server closed it
                writer.close()

        asyncio.run(scenario())

    def test_oversized_value_rejected_connection_survives(self, monkeypatch):
        monkeypatch.setattr("repro.server.protocol.MAX_VALUE_BYTES", 64)

        async def scenario():
            async with running_server() as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                big = b"x" * 100
                reply = await send(
                    writer, reader, b"set big 0 0 100\r\n" + big + b"\r\n"
                )
                assert reply.startswith(b"CLIENT_ERROR")
                # Connection still in sync and usable.
                assert (
                    await send(writer, reader, b"set ok 0 0 2\r\nhi\r\n")
                    == b"STORED\r\n"
                )
                assert server.stats.oversized_rejects == 1
                assert server.cache.get(b"big") is None
                writer.close()

        asyncio.run(scenario())

    def test_works_sharded(self):
        async def scenario():
            cache = make_cache(shards=4)
            async with running_server(cache) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                for i in range(40):
                    assert (
                        await send(
                            writer, reader, b"set s%02d 0 0 2\r\nok\r\n" % i
                        )
                        == b"STORED\r\n"
                    )
                assert cache.item_count == 40
                cache.check_invariants()
                writer.close()

        asyncio.run(scenario())


class TestRobustness:
    def test_read_timeout_drops_stalled_connection(self):
        async def scenario():
            async with running_server(read_timeout=0.05) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                # Send half a command, then stall past the timeout.
                writer.write(b"set k 0 0 5\r\nhel")
                await writer.drain()
                assert await reader.read() == b""  # server hung up
                assert server.stats.read_timeouts >= 1
                # The half-received set never touched the cache.
                assert server.cache.get(b"k") is None
                writer.close()

        asyncio.run(scenario())

    def test_steady_trickle_is_not_an_idle_connection(self):
        """The read timeout is one lazily re-armed timer: it must measure
        silence since the *last* read, not since it was armed."""

        async def scenario():
            timeout = 0.3
            async with running_server(read_timeout=timeout) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                loop = asyncio.get_running_loop()
                # One request every timeout/3 for 3x the timeout.
                for _ in range(9):
                    assert await send(writer, reader, b"get k\r\n") == b"END\r\n"
                    await asyncio.sleep(timeout / 3)
                assert server.stats.read_timeouts == 0
                assert server.stats.connections_current == 1
                # Going silent now is dropped one full timeout after the
                # last read (the sleep above already used a third of it).
                silent_since = loop.time() - timeout / 3
                assert await asyncio.wait_for(reader.read(), 5.0) == b""
                assert loop.time() - silent_since >= timeout * 0.9
                assert server.stats.read_timeouts == 1
                writer.close()

        asyncio.run(scenario())

    def test_slow_reader_is_dropped_and_buffering_stays_bounded(self, monkeypatch):
        """A peer that pipelines big GETs and never reads costs one
        connection and a bounded buffer — not the loop, not the heap."""
        monkeypatch.setattr("repro.server.server.WRITE_TIMEOUT", 0.4)

        async def scenario():
            value = b"v" * 16384
            reply_len = len(b"VALUE big 0 16384\r\n") + len(value) + len(b"\r\nEND\r\n")
            frame = b"get big\r\n"
            pipelined = 600  # ~9.6 MB of replies into a 4 KiB receive window
            cache = make_cache(capacity=4 << 20)
            async with running_server(cache) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                store = b"set big 0 0 %d\r\n%s\r\n" % (len(value), value)
                assert await send(writer, reader, store) == b"STORED\r\n"
                assert (
                    await send(writer, reader, b"set small 0 0 2\r\nok\r\n")
                    == b"STORED\r\n"
                )
                loop = asyncio.get_running_loop()
                slow = socket.socket()
                slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                slow.setblocking(False)
                await loop.sock_connect(slow, ("127.0.0.1", server.port))
                await loop.sock_sendall(slow, frame * pipelined)
                started = loop.time()
                peak = 0
                while server.stats.write_timeouts == 0:
                    assert loop.time() - started < 5.0, "slow reader never dropped"
                    for connection in server._connections:
                        peak = max(
                            peak, connection.transport.get_write_buffer_size()
                        )
                    # The well-behaved client is served throughout.
                    reply = await asyncio.wait_for(
                        send(writer, reader, b"get small\r\n", reply_lines=3), 1.0
                    )
                    assert reply == b"VALUE small 0 2\r\nok\r\nEND\r\n"
                    await asyncio.sleep(0.01)
                high_water = 64 * 1024
                # Early flush at 64 KiB, and the dispatch unit is one command.
                assert high_water < peak <= high_water + 64 * 1024 + reply_len
                await asyncio.sleep(0.05)
                assert server.stats.connections_current == 1
                assert server.stats.write_timeouts == 1
                assert server.stats.read_timeouts == 0
                slow.close()
                writer.close()

        asyncio.run(scenario())

    def test_abrupt_mid_set_disconnect_leaves_accounting_intact(self):
        async def scenario():
            cache = make_cache()
            async with running_server(cache) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                assert (
                    await send(writer, reader, b"set keep 0 0 4\r\ndata\r\n")
                    == b"STORED\r\n"
                )
                items_before = cache.item_count
                bytes_before = cache.used_bytes
                # Abort mid-data-block: declared 100 bytes, sent 10, RST.
                writer.write(b"set torn 0 0 100\r\n0123456789")
                await writer.drain()
                writer.transport.abort()
                # Let the server observe the EOF/reset.
                for _ in range(50):
                    if server.stats.peer_resets or server.stats.connections_current == 0:
                        break
                    await asyncio.sleep(0.01)
                assert cache.item_count == items_before
                assert cache.used_bytes == bytes_before
                assert cache.get(b"torn") is None
                assert cache.get(b"keep") == b"data"
                cache.check_invariants()

        asyncio.run(scenario())

    def test_overload_sheds_with_server_error(self):
        async def scenario():
            cache = make_cache()
            # 0 refill effectively: burst of 3, then everything sheds.
            admission = AdmissionController(
                AdmissionConfig(rate=1e-6, burst=3),
                now=TickClock(1.0),
            )
            server = CacheServer(cache, ServerConfig(port=0), admission=admission)
            await server.start()
            task = asyncio.create_task(server.run())
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            replies = []
            for i in range(6):
                replies.append(
                    await send(writer, reader, b"set k%d 0 0 2\r\nhi\r\n" % i)
                )
            assert replies[:3] == [b"STORED\r\n"] * 3
            assert all(
                reply == b"SERVER_ERROR overloaded\r\n" for reply in replies[3:]
            )
            # stats must still be served while shedding.
            writer.write(b"stats\r\n")
            await writer.drain()
            line = await reader.readline()
            assert line.startswith(b"STAT")
            writer.close()
            server.begin_drain()
            await task
            assert server.admission.stats.shed_total == 3

        asyncio.run(scenario())


class _CountingCache(ZExpander):
    """Counts the shedder's Content-Filter pre-checks."""

    routes_calls = 0

    def routes_to_zzone(self, key):
        self.routes_calls += 1
        return super().routes_to_zzone(key)


class TestZZonePreCheck:
    """The pre-check runs only where ``admit`` reads its answer."""

    KEYS = 600

    def _cache(self):
        # A tenth of the capacity is N-zone: most keys live compressed.
        cache = _CountingCache(
            ZExpanderConfig(
                total_capacity=192 * 1024, nzone_fraction=0.1,
                adaptive=False, seed=11,
            )
        )
        for index in range(self.KEYS):
            cache.set(b"key:%04d" % index, b"value-%04d-" % index * 8)
        assert cache.zzone.item_count > self.KEYS // 2
        return cache

    def _starved(self):
        # 0.6 tokens per request: HEALTHY drains the burst, SHEDDING
        # refills it on every Z-bound GET it drops, and so on round.
        return AdmissionController(
            AdmissionConfig(rate=0.6, burst=20),
            now=TickClock(1.0),
        )

    async def _gets(self, server, count):
        """``count`` depth-1 GETs, half on 20 hot keys, half uniform."""
        rng = random.Random(5)
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        for _ in range(count):
            span = 20 if rng.random() < 0.5 else self.KEYS
            writer.write(b"get key:%04d\r\n" % rng.randrange(span))
            reply = await reader.readline()
            if reply.startswith(b"VALUE"):
                await reader.readuntil(b"END\r\n")
            else:
                assert reply in (b"END\r\n", b"SERVER_ERROR overloaded\r\n")
        writer.close()

    def test_healthy_server_never_asks(self):
        async def scenario():
            cache = self._cache()
            async with running_server(cache) as server:
                await self._gets(server, 200)
                assert server.healthy
                assert server.admission.stats.admitted == 200
            assert cache.routes_calls == 0

        asyncio.run(scenario())

    def test_shedding_server_asks_and_sheds_as_before(self):
        async def scenario():
            cache = self._cache()
            async with running_server(cache, admission=self._starved()) as server:
                await self._gets(server, 400)
                shed = server.admission.stats
            assert cache.routes_calls >= 1
            # Pinned from the commit before the pre-check became lazy:
            # the request that trips HEALTHY -> SHEDDING is judged by
            # the SHEDDING branch in the same call, so none of these moved.
            assert (shed.shed_total, shed.shed_zzone, shed.shed_saturated) == (
                141, 137, 4
            )
            assert shed.admitted + shed.shed_total == 400

        asyncio.run(scenario())


class TestDrainAndRestart:
    def test_drain_answers_draining_then_closes(self):
        async def scenario():
            server = CacheServer(make_cache(), ServerConfig(port=0))
            await server.start()
            task = asyncio.create_task(server.run())
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            assert (
                await send(writer, reader, b"set k 0 0 2\r\nhi\r\n")
                == b"STORED\r\n"
            )
            server.begin_drain()
            reply = await send(writer, reader, b"get k\r\n")
            assert reply == b"SERVER_ERROR draining\r\n"
            # New connections are refused (listener closed).
            with contextlib.suppress(ConnectionError, OSError):
                r2, w2 = await asyncio.open_connection("127.0.0.1", server.port)
                assert await r2.read() == b""
                w2.close()
            assert await task == 0
            writer.close()

        asyncio.run(scenario())

    def test_sigterm_snapshot_restart_cycle(self, tmp_path):
        """Drain writes a snapshot; a fresh server restores >= 95%."""
        snap = str(tmp_path / "server.snap")

        async def phase1():
            cache = make_cache(shards=2)
            server = CacheServer(
                cache, ServerConfig(port=0, snapshot_path=snap)
            )
            await server.start()
            task = asyncio.create_task(server.run())
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            for i in range(300):
                payload = b"v%04d" % i
                await send(
                    writer,
                    reader,
                    b"set key:%04d 0 0 %d\r\n%s\r\n" % (i, len(payload), payload),
                )
            writer.close()
            count = cache.item_count
            server.begin_drain()
            assert await task == 0
            assert server.stats.snapshot_written == count
            return count

        async def phase2(expected):
            cache = make_cache(shards=2)
            server = CacheServer(
                cache, ServerConfig(port=0, snapshot_path=snap)
            )
            await server.start()
            task = asyncio.create_task(server.run())
            assert server.stats.snapshot_loaded >= expected * 0.95
            assert cache.item_count >= expected * 0.95
            # Restored bytes are the originals.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            hits = 0
            for i in range(300):
                reply = await send(writer, reader, b"get key:%04d\r\n" % i)
                if reply.startswith(b"VALUE"):
                    value = (await reader.readline()).rstrip()
                    assert value == b"v%04d" % i
                    assert await reader.readline() == b"END\r\n"
                    hits += 1
            assert hits >= expected * 0.95
            writer.close()
            server.begin_drain()
            await task

        count = asyncio.run(phase1())
        assert count > 0
        asyncio.run(phase2(count))
