"""FailoverMemcacheClient: read fan-out, failover, and promotion."""

import asyncio

import pytest

from repro.core.config import ZExpanderConfig
from repro.core.sharded import ShardedZExpander
from repro.server.client import FailoverMemcacheClient
from repro.server.server import CacheServer, ServerConfig


def make_cache(capacity=256 * 1024, shards=2, seed=11):
    return ShardedZExpander(
        ZExpanderConfig(total_capacity=capacity, seed=seed), num_shards=shards
    )


async def start_primary(journal_dir, **kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("fsync", "always")
    kwargs.setdefault("repl_port", 0)
    server = CacheServer(
        make_cache(), ServerConfig(journal_dir=str(journal_dir), **kwargs)
    )
    await server.start()
    return server, asyncio.create_task(server.run())


async def start_replica(primary_repl_port, **kwargs):
    kwargs.setdefault("port", 0)
    server = CacheServer(
        make_cache(),
        ServerConfig(
            role="replica",
            primary_host="127.0.0.1",
            primary_port=primary_repl_port,
            **kwargs,
        ),
    )
    await server.start()
    return server, asyncio.create_task(server.run())


async def wait_until(predicate, timeout=10.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(0.02)
    return predicate()


async def drain(server, task):
    server.begin_drain()
    return await task


def dead_port():
    """A port nothing is listening on (bound once, then released)."""
    import socket

    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


class TestReadFanout:
    def test_reads_prefer_replicas_writes_hit_primary(self, tmp_path):
        async def go():
            primary, ptask = await start_primary(tmp_path)
            replica, rtask = await start_replica(primary.repl_source.port)
            client = FailoverMemcacheClient(
                ("127.0.0.1", primary.port),
                [("127.0.0.1", replica.port)],
            )
            try:
                assert await client.set(b"fan", b"out")
                assert await wait_until(
                    lambda: replica.cache.get(b"fan") == b"out"
                )
                assert await client.get(b"fan") == b"out"
                assert client.reads_replica == 1
                assert client.reads_primary == 0
                found = await client.get_many([b"fan", b"absent"])
                assert found == {b"fan": b"out"}
                assert client.reads_replica == 2
            finally:
                await client.close()
            await drain(replica, rtask)
            await drain(primary, ptask)

        asyncio.run(go())

    def test_dead_replica_fails_over_to_primary(self, tmp_path):
        async def go():
            primary, ptask = await start_primary(tmp_path)
            client = FailoverMemcacheClient(
                ("127.0.0.1", primary.port),
                [("127.0.0.1", dead_port())],
            )
            try:
                assert await client.set(b"solo", b"value")
                assert await client.get(b"solo") == b"value"
                assert client.read_failovers >= 1
                assert client.reads_primary == 1
            finally:
                await client.close()
            await drain(primary, ptask)

        asyncio.run(go())

    def test_lagging_replica_fails_over_to_primary(self, tmp_path):
        async def go():
            primary, ptask = await start_primary(tmp_path)
            # A replica pointed at a dead upstream never connects, so its
            # read gate sheds everything — the client must route past it.
            replica, rtask = await start_replica(dead_port(), stale_grace=0.1)
            client = FailoverMemcacheClient(
                ("127.0.0.1", primary.port),
                [("127.0.0.1", replica.port)],
            )
            try:
                assert await client.set(b"k", b"v")
                assert await client.get(b"k") == b"v"
                assert client.read_failovers >= 1
                assert client.reads_primary == 1
            finally:
                await client.close()
            await drain(replica, rtask)
            await drain(primary, ptask)

        asyncio.run(go())


class TestPromotionFailover:
    def test_promote_retargets_writes(self, tmp_path):
        async def go():
            primary, ptask = await start_primary(tmp_path)
            replica, rtask = await start_replica(primary.repl_source.port)
            client = FailoverMemcacheClient(
                ("127.0.0.1", primary.port),
                [("127.0.0.1", replica.port)],
            )
            try:
                assert await client.set(b"before", b"old")
                assert await wait_until(
                    lambda: replica.cache.get(b"before") == b"old"
                )
                await drain(primary, ptask)  # the primary dies

                new_primary = await client.promote(0, str(tmp_path))
                assert new_primary == ("127.0.0.1", replica.port)
                assert client.primary_address == new_primary
                assert client.promotions == 1
                # Writes now land on the promoted node...
                assert await client.set(b"after", b"new")
                assert await client.get(b"after") == b"new"
                # ...which also kept everything the dead primary acked,
                # and serves reads as the primary, out of the rotation.
                assert await client.get(b"before") == b"old"
                assert client.reads_replica == 0
            finally:
                await client.close()
            await drain(replica, rtask)

        asyncio.run(go())

    def test_promote_bad_index_rejected_and_topology_unchanged(self, tmp_path):
        async def go():
            primary, ptask = await start_primary(tmp_path)
            client = FailoverMemcacheClient(("127.0.0.1", primary.port))
            try:
                with pytest.raises(ValueError):
                    await client.promote(0)
                assert client.primary_address == ("127.0.0.1", primary.port)
                assert client.promotions == 0
            finally:
                await client.close()
            await drain(primary, ptask)

        asyncio.run(go())

    def test_failed_promote_keeps_replica_in_rotation(self, tmp_path):
        async def go():
            primary, ptask = await start_primary(tmp_path)
            # "Replica" is actually a primary: promote is refused there.
            client = FailoverMemcacheClient(
                ("127.0.0.1", dead_port()),
                [("127.0.0.1", primary.port)],
            )
            try:
                with pytest.raises(Exception):
                    await client.promote(0)
                assert client.promotions == 0
                # Still in the read rotation: it answers, not the dead primary.
                assert await client.get(b"probe") is None
                assert client.reads_replica == 1
            finally:
                await client.close()
            await drain(primary, ptask)

        asyncio.run(go())
