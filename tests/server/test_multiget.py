"""Multi-key GET: per-key accounting, batching, and pipelined singles.

Pins memcached's per-*key* accounting on multi-key GETs (``get a b c``
with one resident key is 1 ``get_hits`` + 2 ``get_misses`` but a single
``cmd_get``), that a native multi-key ``get`` is the one request shape
that reaches ``get_many``, and that pipelined single-key GETs are served
command by command: own reply frame each, no batch formed.
"""

import asyncio

from repro.core.config import ZExpanderConfig
from repro.core.zexpander import ZExpander
from repro.harness import expected_value, key_name
from repro.server.client import MemcacheClient

from .test_server import make_cache, running_server, send


async def _store(writer, reader, key: bytes, value: bytes) -> None:
    reply = await send(
        writer,
        reader,
        b"set %s 0 0 %d\r\n%s\r\n" % (key, len(value), value),
    )
    assert reply == b"STORED\r\n"


class TestPerKeyAccounting:
    """Satellite regression: hits/misses count per key, not per command."""

    def test_per_key_counts(self):
        async def run():
            async with running_server() as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                await _store(writer, reader, b"mk1", b"alpha")
                await _store(writer, reader, b"mk3", b"gamma")
                reply = await send(
                    writer,
                    reader,
                    b"get mk1 mk2 mk3 mk4\r\n",
                    reply_lines=5,
                )
                assert reply == (
                    b"VALUE mk1 0 5\r\nalpha\r\n"
                    b"VALUE mk3 0 5\r\ngamma\r\n"
                    b"END\r\n"
                )
                # memcached semantics: one command, four key lookups.
                assert server.stats.cmd_get == 1
                assert server.stats.get_hits == 2
                assert server.stats.get_misses == 2
                writer.close()

        asyncio.run(run())

    def test_multikey_get_counts_as_one_batch(self):
        async def run():
            async with running_server() as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                await _store(writer, reader, b"bk1", b"one")
                await send(writer, reader, b"get bk1 bk2\r\n", reply_lines=3)
                stats = server.cache.stats
                assert stats.get_many_batches == 1
                assert stats.batched_keys == 2
                # Single-key GETs stay off the batch path entirely.
                await send(writer, reader, b"get bk1\r\n", reply_lines=3)
                assert stats.get_many_batches == 1
                writer.close()

        asyncio.run(run())


class TestPipelinedGets:
    def test_pipelined_gets_reply_per_command(self):
        """A one-write burst of single-key GETs: each command keeps its
        own reply frame (own END) and its own cache lookup."""

        async def run():
            async with running_server() as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                await _store(writer, reader, b"pk1", b"aa")
                await _store(writer, reader, b"pk2", b"bb")
                commands_before = server.stats.commands
                writer.write(b"get pk1\r\nget missing\r\nget pk2\r\n")
                await writer.drain()
                reply = b""
                for _ in range(7):
                    reply += await reader.readline()
                assert reply == (
                    b"VALUE pk1 0 2\r\naa\r\nEND\r\n"
                    b"END\r\n"
                    b"VALUE pk2 0 2\r\nbb\r\nEND\r\n"
                )
                assert server.stats.commands == commands_before + 3
                assert server.stats.cmd_get == 3
                assert server.stats.get_hits == 2
                assert server.stats.get_misses == 1
                # Arriving together fuses nothing: only a multi-key
                # command forms a batch.
                assert server.cache.stats.get_many_batches == 0
                assert server.cache.stats.batched_keys == 0
                writer.close()

        asyncio.run(run())

    def test_mixed_burst_splits_around_writes(self):
        """get, set, get in one write: the second GET sees the SET,
        replies arrive in order, nothing is lost."""

        async def run():
            async with running_server() as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                await _store(writer, reader, b"xk1", b"v1")
                writer.write(
                    b"get xk1\r\n"
                    b"set xk2 0 0 2\r\nv2\r\n"
                    b"get xk2\r\nget xk1\r\n"
                )
                await writer.drain()
                reply = b""
                for _ in range(10):
                    reply += await reader.readline()
                assert reply == (
                    b"VALUE xk1 0 2\r\nv1\r\nEND\r\n"
                    b"STORED\r\n"
                    b"VALUE xk2 0 2\r\nv2\r\nEND\r\n"
                    b"VALUE xk1 0 2\r\nv1\r\nEND\r\n"
                )
                writer.close()

        asyncio.run(run())

    def test_gets_burst_carries_cas(self):
        async def run():
            async with running_server() as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                await _store(writer, reader, b"ck1", b"v1")
                await _store(writer, reader, b"ck2", b"v2")
                writer.write(b"gets ck1\r\ngets ck2\r\n")
                await writer.drain()
                reply = b""
                for _ in range(6):
                    reply += await reader.readline()
                assert reply == (
                    b"VALUE ck1 0 2 1\r\nv1\r\nEND\r\n"
                    b"VALUE ck2 0 2 2\r\nv2\r\nEND\r\n"
                )
                writer.close()

        asyncio.run(run())


class TestZZoneHeavyBatches:
    """What ``bench_server.py``'s multiget records are taken on: a cache
    small enough, with an N-zone fraction low enough, that most resident
    items live in compressed Z-zone blocks."""

    KEYS, BATCH, ROUNDS = 600, 16, 40

    def _names(self, round_index):
        """14 resident keys, strided across trie blocks, + 2 never set."""
        names = [
            key_name(0, (round_index * 7 + j * 41) % self.KEYS)
            for j in range(self.BATCH - 2)
        ]
        return names + [key_name(9, round_index), key_name(9, round_index + 1)]

    def test_shapes_agree_and_a_batch_shares_decodes(self):
        async def run():
            cache = ZExpander(
                ZExpanderConfig(
                    total_capacity=192 * 1024, nzone_fraction=0.1, seed=42
                )
            )
            async with running_server(cache=cache) as server:
                client = MemcacheClient(port=server.port, pool_size=1)
                for key_id in range(self.KEYS):
                    await client.set(
                        key_name(0, key_id), expected_value(42, 0, key_id, 1)
                    )
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                for round_index in range(self.ROUNDS):
                    names = self._names(round_index)
                    native = await client.get_many(names)
                    assert server.cache.stats.get_many_batches == round_index + 1
                    # The same keys as pipelined singles in one write:
                    # own END each, and no batch formed.
                    writer.write(b"".join(b"get %s\r\n" % n for n in names))
                    await writer.drain()
                    singles, ends = {}, 0
                    while ends < len(names):
                        line = await reader.readline()
                        if line.startswith(b"VALUE "):
                            value = await reader.readline()
                            singles[line.split(b" ")[1]] = value[:-2]
                        else:
                            assert line == b"END\r\n"
                            ends += 1
                    assert native and singles == native
                    assert server.cache.stats.get_many_batches == round_index + 1
                stats = server.stats_dict()
                assert stats["cache_get_many_batches"] == self.ROUNDS
                assert stats["fastpath_container_decodes_saved"] > 0
                writer.close()
                await client.close()

        asyncio.run(run())


class TestStatsWire:
    def test_batch_counters_on_stats_wire(self):
        async def run():
            for shards in (0, 2):
                cache = make_cache(shards=shards)
                async with running_server(cache=cache) as server:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    await _store(writer, reader, b"sk1", b"vv")
                    await send(writer, reader, b"get sk1 sk2\r\n", reply_lines=3)
                    stats = server.stats_dict()
                    # Sharded caches count one batch per involved shard.
                    assert 1 <= stats["cache_get_many_batches"] <= 2
                    assert stats["cache_batched_keys"] == 2
                    assert "fastpath_container_decodes_saved" in stats
                    writer.close()

        asyncio.run(run())


class TestClientChunking:
    def test_get_many_empty_is_local(self):
        async def run():
            async with running_server() as server:
                client = MemcacheClient(port=server.port, pool_size=1)
                assert await client.get_many([]) == {}
                await client.close()

        asyncio.run(run())

    def test_get_many_chunks_under_line_cap(self):
        async def run():
            async with running_server() as server:
                client = MemcacheClient(port=server.port, pool_size=1)
                keys = [b"chunk:%04d" % i for i in range(1200)]
                for key in keys[:50]:
                    await client.set(key, b"v" + key)
                # 1200 x ~11-byte keys ≈ 14 KB of request line: must be
                # split to stay under the 8 KB server line cap.
                requests = client._get_requests(b"get", keys)
                assert len(requests) > 1
                assert all(len(r) <= 8192 for r in requests)
                result = await client.get_many(keys)
                assert result == {key: b"v" + key for key in keys[:50]}
                await client.close()

        asyncio.run(run())
