"""Expiry: a key's deadline lives in the server's store, beside its flags
and CAS (``repro.server.meta``), read on the store's one clock.

The store deletes a key whose deadline has passed on the read that asks
for it or in the bounded purge the server runs once per command, and
its walk leaves such a key out of every image, so neither a drain, a
checkpoint nor a resync brings back an item the server had stopped
serving.  The store's own deadline cases are in
``tests/core/test_expiry.py``.
"""

import asyncio
import time

from repro.core import ZExpanderConfig
from repro.core.sharded import ShardedZExpander
from repro.core.simple import SimpleKVCache
from repro.core.snapshot import read_image, write_snapshot
from repro.nzone.hpcache import HPCacheZone
from repro.server.meta import ItemMetaStore

from .test_flags_cas import connect, drain, send, started_server


def four_shards():
    return ShardedZExpander(
        ZExpanderConfig(total_capacity=1 << 20, seed=7), num_shards=4
    )


def keys_off_the_shard_of(cache, key, count=10):
    """``count`` keys that no shard-local housekeeping of ``key`` sees."""
    home = cache.shard_for(key)
    others = (b"other%03d" % i for i in range(1000))
    return [other for other in others if cache.shard_for(other) is not home][
        :count
    ]


class TestNoImageHoldsAnExpiredItem:
    def test_library_image_leaves_out_an_expired_key(self, tmp_path):
        cache = four_shards()
        store = ItemMetaStore(cache)
        store.set(b"session9", b"gone soon", ttl=1.0)
        others = keys_off_the_shard_of(cache, b"session9")
        for key in others:
            store.set(key, b"v")
        cache.clock.advance(5.0)
        for key in others:
            assert cache.get(key) == b"v"
        image = tmp_path / "image.snap"
        assert write_snapshot(store, image) == len(others)
        loaded = []
        scan = read_image(image, lambda _op, key, _value, _flags: loaded.append(key))
        assert scan.clean
        assert sorted(loaded) == sorted(others)

    def test_drain_and_restart_do_not_bring_an_expired_key_back(self, tmp_path):
        snapshot = str(tmp_path / "warm.snap")

        async def first_life():
            cache = four_shards()
            others = keys_off_the_shard_of(cache, b"session9")
            server, task = await started_server(
                cache, snapshot_path=snapshot, clock_mode="wall"
            )
            reader, writer = await connect(server)
            assert (
                await send(writer, reader, b"set session9 0 1 2\r\nhi\r\n")
                == b"STORED\r\n"
            )
            until = time.monotonic() + 1.3
            while time.monotonic() < until:
                for key in others:
                    reply = await send(writer, reader, b"get %s\r\n" % key)
                    assert reply == b"END\r\n"
                await asyncio.sleep(0.05)
            writer.close()
            assert await drain(server, task) == 0

        async def second_life():
            server, task = await started_server(
                four_shards(), snapshot_path=snapshot, clock_mode="wall"
            )
            reader, writer = await connect(server)
            assert await send(writer, reader, b"get session9\r\n") == b"END\r\n"
            writer.close()
            assert await drain(server, task) == 0

        asyncio.run(first_life())
        asyncio.run(second_life())


def test_a_simple_cache_is_served_and_expires_on_the_store_clock():
    """A cache without a clock of its own: the store brings one, and the
    server ticks and counts expiry on it."""

    async def scenario():
        server, task = await started_server(
            SimpleKVCache(HPCacheZone(1 << 20, seed=1))
        )
        reader, writer = await connect(server)
        assert (
            await send(writer, reader, b"set k 0 1 2\r\nhi\r\n") == b"STORED\r\n"
        )
        reply = await send(writer, reader, b"get k\r\n", reply_lines=3)
        assert reply == b"VALUE k 0 2\r\nhi\r\nEND\r\n"
        server.store.clock.advance(1.0)
        assert await send(writer, reader, b"get k\r\n") == b"END\r\n"
        assert server.stats_dict()["cache_expirations"] == 1
        writer.close()
        assert await drain(server, task) == 0

    asyncio.run(scenario())
