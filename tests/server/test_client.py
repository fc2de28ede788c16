"""Client behaviour: pooling, deadlines, retry with jittered backoff."""

import asyncio
import random

import pytest

from repro.common.errors import (
    ProtocolError,
    RequestTimeoutError,
    ServerOverloadedError,
)
from repro.core.config import ZExpanderConfig
from repro.core.zexpander import ZExpander
from repro.server.client import MemcacheClient, RetryPolicy
from repro.server.server import CacheServer, ServerConfig


async def real_server():
    cache = ZExpander(ZExpanderConfig(total_capacity=128 * 1024))
    server = CacheServer(cache, ServerConfig(port=0))
    await server.start()
    task = asyncio.create_task(server.run())
    return server, task


class ScriptedServer:
    """A raw TCP peer whose replies are scripted per request line."""

    def __init__(self, script):
        self.script = list(script)  # callables: (line) -> bytes | None
        self.connections = 0
        self.requests = 0
        self._server = None
        self._handlers = []

    async def start(self):
        self._server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        return self._server.sockets[0].getsockname()[1]

    async def _handle(self, reader, writer):
        self.connections += 1
        self._handlers.append(asyncio.current_task())
        try:
            await self._serve(reader, writer)
        finally:
            writer.close()

    async def _serve(self, reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            if line.startswith(b"set "):
                length = int(line.split()[4])
                await reader.readexactly(length + 2)  # data block + CRLF
            step = self.script[min(self.requests, len(self.script) - 1)]
            self.requests += 1
            reply = await step(line) if asyncio.iscoroutinefunction(step) else step(line)
            if reply is None:  # hang up without replying
                writer.transport.abort()
                return
            writer.write(reply)
            try:
                await writer.drain()
            except ConnectionError:
                return

    async def close(self):
        """Stop listening and end every handler, stalled ones included,
        so no accepted socket outlives the test."""
        self._server.close()
        for handler in self._handlers:
            handler.cancel()
        await asyncio.gather(*self._handlers, return_exceptions=True)
        await self._server.wait_closed()


class TestRetryPolicy:
    def test_full_jitter_bounds(self):
        policy = RetryPolicy(max_attempts=5, backoff_base=0.1, backoff_cap=0.3)
        rng = random.Random(0)
        for attempt in range(1, 6):
            ceiling = min(0.3, 0.1 * (2 ** (attempt - 1)))
            for _ in range(50):
                delay = policy.delay(attempt, rng)
                assert 0.0 <= delay <= ceiling

    def test_seeded_rng_makes_delays_deterministic(self):
        policy = RetryPolicy()
        a = [policy.delay(i, random.Random(42)) for i in range(1, 4)]
        b = [policy.delay(i, random.Random(42)) for i in range(1, 4)]
        assert a == b


class TestAgainstRealServer:
    def test_roundtrip_and_multiget(self):
        async def scenario():
            server, task = await real_server()
            client = MemcacheClient(port=server.port, pool_size=2)
            assert await client.set(b"a", b"1")
            assert await client.set(b"b", b"22")
            assert await client.get(b"a") == b"1"
            assert await client.get(b"nope") is None
            many = await client.get_many([b"a", b"b", b"nope"])
            assert many == {b"a": b"1", b"b": b"22"}
            value, cas = await client.gets(b"b")
            assert value == b"22" and isinstance(cas, int)
            assert await client.delete(b"a") is True
            assert await client.delete(b"a") is False
            stats = await client.stats()
            assert int(stats["curr_items"]) == 1
            assert (await client.version()).startswith("repro-zx/")
            await client.close()
            server.begin_drain()
            await task

        asyncio.run(scenario())

    def test_pool_reuses_connections(self):
        async def scenario():
            server, task = await real_server()
            client = MemcacheClient(port=server.port, pool_size=1)
            for i in range(20):
                await client.set(b"k%d" % i, b"v")
            # One pooled connection served all 20 requests.
            assert server.stats.connections_total == 1
            await client.close()
            server.begin_drain()
            await task

        asyncio.run(scenario())

    def test_invalid_key_rejected_client_side(self):
        async def scenario():
            server, task = await real_server()
            client = MemcacheClient(port=server.port)
            with pytest.raises(ProtocolError):
                await client.set(b"has space", b"v")
            with pytest.raises(ProtocolError):
                await client.get(b"")
            await client.close()
            server.begin_drain()
            await task

        asyncio.run(scenario())


class TestFailureHandling:
    def test_deadline_miss_raises_request_timeout(self):
        async def scenario():
            async def stall(_line):
                await asyncio.sleep(5.0)
                return b"STORED\r\n"

            peer = ScriptedServer([stall])
            port = await peer.start()
            client = MemcacheClient(
                port=port,
                deadline=0.05,
                retry=RetryPolicy(max_attempts=2, backoff_base=0.001),
            )
            with pytest.raises(RequestTimeoutError):
                await client.set(b"k", b"v")
            await client.close()
            await peer.close()

        asyncio.run(scenario())

    def test_retries_after_overload_then_succeeds(self):
        async def scenario():
            peer = ScriptedServer(
                [
                    lambda _line: b"SERVER_ERROR overloaded\r\n",
                    lambda _line: b"SERVER_ERROR overloaded\r\n",
                    lambda _line: b"STORED\r\n",
                ]
            )
            port = await peer.start()
            client = MemcacheClient(
                port=port,
                retry=RetryPolicy(max_attempts=4, backoff_base=0.001),
                rng=random.Random(1),
            )
            assert await client.set(b"k", b"v") is True
            assert peer.requests == 3
            # Overload replies keep the connection healthy: all three
            # attempts rode the same pooled connection.
            assert peer.connections == 1
            await client.close()
            await peer.close()

        asyncio.run(scenario())

    def test_overload_exhausts_attempts_then_raises(self):
        async def scenario():
            peer = ScriptedServer([lambda _line: b"SERVER_ERROR overloaded\r\n"])
            port = await peer.start()
            client = MemcacheClient(
                port=port,
                retry=RetryPolicy(max_attempts=3, backoff_base=0.001),
                rng=random.Random(2),
            )
            with pytest.raises(ServerOverloadedError):
                await client.set(b"k", b"v")
            assert peer.requests == 3
            await client.close()
            await peer.close()

        asyncio.run(scenario())

    def test_broken_connection_discarded_and_retried(self):
        async def scenario():
            # First request: hang up mid-exchange.  Second: succeed.
            peer = ScriptedServer(
                [lambda _line: None, lambda _line: b"STORED\r\n"]
            )
            port = await peer.start()
            client = MemcacheClient(
                port=port,
                retry=RetryPolicy(max_attempts=3, backoff_base=0.001),
                rng=random.Random(3),
            )
            assert await client.set(b"k", b"v") is True
            # The aborted connection was discarded, a fresh one dialed.
            assert peer.connections == 2
            await client.close()
            await peer.close()

        asyncio.run(scenario())

    def test_connection_refused_surfaces_after_retries(self):
        async def scenario():
            # Grab a port, then close it: nothing listens there.
            probe = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()
            client = MemcacheClient(
                port=port,
                retry=RetryPolicy(max_attempts=2, backoff_base=0.001),
                rng=random.Random(4),
            )
            with pytest.raises(OSError):
                await client.get(b"k")
            await client.close()

        asyncio.run(scenario())

    def test_client_error_not_retried(self):
        async def scenario():
            peer = ScriptedServer([lambda _line: b"CLIENT_ERROR bad key\r\n"])
            port = await peer.start()
            client = MemcacheClient(port=port)
            with pytest.raises(ProtocolError):
                await client.delete(b"k")
            assert peer.requests == 1  # no retry for our own bad request
            await client.close()
            await peer.close()

        asyncio.run(scenario())


class TestPoolSlotConservation:
    """Cancelled requests must not leak pool slots (satellite fix)."""

    def test_cancellation_returns_every_slot(self):
        async def scenario():
            async def black_hole(_line):
                await asyncio.sleep(3600.0)  # accept, never reply
                return b"STORED\r\n"

            peer = ScriptedServer([black_hole])
            port = await peer.start()
            pool_size = 3
            client = MemcacheClient(
                port=port,
                pool_size=pool_size,
                deadline=30.0,  # far longer than the test: only cancel ends it
            )
            # Exhaust the pool with requests that will never complete.
            tasks = [
                asyncio.create_task(client.set(b"key:%d" % i, b"v"))
                for i in range(pool_size)
            ]
            await asyncio.sleep(0.05)
            assert client._pool.qsize() == 0  # every slot held
            for task in tasks:
                task.cancel()
            for task in tasks:
                with pytest.raises(asyncio.CancelledError):
                    await task
            # The finally in _call returned each slot on cancellation.
            assert client._pool.qsize() == pool_size
            await client.close()
            await peer.close()

        asyncio.run(scenario())

    def test_pool_usable_after_mass_cancellation(self):
        async def scenario():
            server, run_task = await real_server()
            client = MemcacheClient(port=server.port, pool_size=2)
            stuck = [
                asyncio.create_task(client.get(b"warm:%d" % i))
                for i in range(2)
            ]
            for task in stuck:
                task.cancel()
            await asyncio.gather(*stuck, return_exceptions=True)
            assert client._pool.qsize() == 2
            # Full pool-width traffic still works after the cancellations.
            assert await client.set(b"after", b"cancel") is True
            assert await client.get(b"after") == b"cancel"
            await client.close()
            server.begin_drain()
            await run_task

        asyncio.run(scenario())

    def test_release_when_pool_already_full_drops_extra(self):
        async def scenario():
            client = MemcacheClient(pool_size=1)

            class FakeConn:
                closed = False

                def close(self):
                    self.closed = True

            # Pool already holds its one slot; a stray release must not
            # raise and must close the surplus connection.
            extra = FakeConn()
            client._release(extra, healthy=True)
            assert extra.closed is True
            assert client._pool.qsize() == 1

        asyncio.run(scenario())
