"""ClusterClient behaviour over real in-process servers (loopback, port 0)."""

import asyncio
import contextlib

import pytest

from repro.cluster.client import ClusterClient
from repro.common.errors import NodeDownError
from repro.core.config import ZExpanderConfig
from repro.core.zexpander import ZExpander
from repro.server.server import CacheServer, ServerConfig


@contextlib.asynccontextmanager
async def running_cluster(count=3):
    """``count`` independent CacheServers; yields {node_id: (host, port)}."""
    servers = []
    tasks = []
    try:
        for index in range(count):
            cache = ZExpander(
                ZExpanderConfig(total_capacity=256 * 1024, seed=20 + index)
            )
            server = CacheServer(cache, ServerConfig(port=0))
            await server.start()
            servers.append(server)
            tasks.append(asyncio.create_task(server.run()))
        yield {
            f"node{i}": ("127.0.0.1", server.port)
            for i, server in enumerate(servers)
        }
    finally:
        for server, task in zip(servers, tasks):
            server.begin_drain()
            with contextlib.suppress(Exception):
                await task


def run(coro):
    return asyncio.run(coro)


class TestRouting:
    def test_set_get_route_to_same_node(self):
        async def scenario():
            async with running_cluster(3) as nodes:
                client = ClusterClient(nodes)
                try:
                    keys = [b"k%03d" % i for i in range(60)]
                    for key in keys:
                        assert await client.set(key, b"v:" + key)
                    for key in keys:
                        assert await client.get(key) == b"v:" + key
                    # Traffic actually spread: every node saw requests.
                    assert all(
                        count > 0
                        for count in client.per_node_requests.values()
                    )
                finally:
                    await client.close()

        run(scenario())

    def test_only_owner_holds_the_key(self):
        async def scenario():
            async with running_cluster(3) as nodes:
                client = ClusterClient(nodes)
                try:
                    keys = [b"solo%03d" % i for i in range(40)]
                    for key in keys:
                        await client.set(key, b"x")
                    for key in keys:
                        owner = client.node_for(key)
                        for node_id in sorted(nodes):
                            direct = await client.client_for(node_id).get(key)
                            if node_id == owner:
                                assert direct == b"x"
                            else:
                                assert direct is None
                finally:
                    await client.close()

        run(scenario())

    def test_get_many_spans_nodes(self):
        async def scenario():
            async with running_cluster(3) as nodes:
                client = ClusterClient(nodes)
                try:
                    keys = [b"mk%03d" % i for i in range(50)]
                    for key in keys:
                        await client.set(key, b"v:" + key)
                    found = await client.get_many(keys + [b"absent-key"])
                    assert len(found) == len(keys)
                    for key in keys:
                        assert found[key] == b"v:" + key
                    assert b"absent-key" not in found
                    owners = {client.node_for(k) for k in keys}
                    assert len(owners) == 3  # genuinely a fan-out
                finally:
                    await client.close()

        run(scenario())

    def test_flags_and_cas_through_the_ring(self):
        async def scenario():
            async with running_cluster(2) as nodes:
                client = ClusterClient(nodes)
                try:
                    await client.set(b"fk", b"v1", flags=17)
                    got = await client.gets(b"fk")
                    assert got is not None
                    value, token = got
                    assert value == b"v1"
                    assert await client.cas(b"fk", b"v2", token) is True
                    assert await client.cas(b"fk", b"v3", token) is False
                    assert await client.get(b"fk") == b"v2"
                finally:
                    await client.close()

        run(scenario())


class TestNodeDownPolicy:
    @staticmethod
    def with_dead_node(nodes):
        """The real address book plus one endpoint nobody listens on."""
        dead = dict(nodes)
        dead["node-dead"] = ("127.0.0.1", 1)  # reserved port: refused
        return dead

    def test_error_mode_raises_with_node_id(self):
        async def scenario():
            async with running_cluster(2) as nodes:
                client = ClusterClient(
                    self.with_dead_node(nodes), on_node_down="error"
                )
                try:
                    dead_keys = [
                        b"dk%04d" % i
                        for i in range(400)
                        if client.node_for(b"dk%04d" % i) == "node-dead"
                    ]
                    assert dead_keys  # ~1/3 of the keyspace
                    with pytest.raises(NodeDownError, match="node-dead"):
                        await client.get(dead_keys[0])
                    with pytest.raises(NodeDownError):
                        await client.get_many(dead_keys[:4])
                finally:
                    await client.close()

        run(scenario())

    def test_miss_mode_degrades_reads_only(self):
        async def scenario():
            async with running_cluster(2) as nodes:
                client = ClusterClient(
                    self.with_dead_node(nodes), on_node_down="miss"
                )
                try:
                    live_key = next(
                        b"lk%04d" % i
                        for i in range(400)
                        if client.node_for(b"lk%04d" % i) != "node-dead"
                    )
                    dead_key = next(
                        b"dk%04d" % i
                        for i in range(400)
                        if client.node_for(b"dk%04d" % i) == "node-dead"
                    )
                    await client.set(live_key, b"alive")
                    found = await client.get_many([live_key, dead_key])
                    assert found == {live_key: b"alive"}
                    assert client.node_down_misses >= 1
                    assert await client.get(dead_key) is None
                    # Writes are never degraded, even in miss mode.
                    with pytest.raises(NodeDownError):
                        await client.set(dead_key, b"x")
                    with pytest.raises(NodeDownError):
                        await client.delete(dead_key)
                finally:
                    await client.close()

        run(scenario())

    def test_policy_validated(self):
        with pytest.raises(ValueError):
            ClusterClient({"a": ("127.0.0.1", 1)}, on_node_down="retry")
        with pytest.raises(ValueError):
            ClusterClient({})
