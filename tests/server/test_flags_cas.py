"""Protocol fidelity over real sockets: flags, cas, absolute exptime.

These are the memcached behaviours real client libraries depend on:
client flags round-trip byte-exact through get/gets, cas tokens are
monotonic per-item versions (not value hashes), and exptimes above 30
days are absolute Unix timestamps.  Persistence is covered too — flags
must survive journal recovery, checkpoints, and warm-restart snapshots.
"""

import asyncio
import time

from repro.core.config import ZExpanderConfig
from repro.core.sharded import ShardedZExpander
from repro.core.snapshot import load_snapshot, write_snapshot
from repro.server.meta import ItemMetaStore
from repro.server.server import CacheServer, ServerConfig

from .test_durability_server import abandon


def make_cache(capacity=256 * 1024, shards=2, seed=11):
    return ShardedZExpander(
        ZExpanderConfig(total_capacity=capacity, seed=seed), num_shards=shards
    )


async def started_server(cache=None, **config_kwargs):
    config_kwargs.setdefault("port", 0)
    server = CacheServer(
        cache if cache is not None else make_cache(),
        ServerConfig(**config_kwargs),
    )
    await server.start()
    task = asyncio.create_task(server.run())
    return server, task


async def send(writer, reader, payload, reply_lines=1):
    writer.write(payload)
    await writer.drain()
    lines = []
    for _ in range(reply_lines):
        lines.append(await reader.readline())
    return b"".join(lines)


async def connect(server):
    return await asyncio.open_connection("127.0.0.1", server.port)


async def drain(server, task):
    server.begin_drain()
    return await task



class TestFlagsRoundTrip:
    def test_flags_echoed_on_get(self):
        async def scenario():
            server, task = await started_server()
            reader, writer = await connect(server)
            assert (
                await send(writer, reader, b"set k 12345 0 5\r\nhello\r\n")
                == b"STORED\r\n"
            )
            reply = await send(writer, reader, b"get k\r\n", reply_lines=3)
            assert reply == b"VALUE k 12345 5\r\nhello\r\nEND\r\n"
            writer.close()
            await drain(server, task)

        asyncio.run(scenario())

    def test_overwrite_replaces_flags(self):
        async def scenario():
            server, task = await started_server()
            reader, writer = await connect(server)
            await send(writer, reader, b"set k 7 0 1\r\nA\r\n")
            await send(writer, reader, b"set k 0 0 1\r\nB\r\n")
            reply = await send(writer, reader, b"get k\r\n", reply_lines=3)
            assert reply == b"VALUE k 0 1\r\nB\r\nEND\r\n"
            writer.close()
            await drain(server, task)

        asyncio.run(scenario())


class TestCasOverTheWire:
    def test_gets_then_cas_succeeds_once(self):
        async def scenario():
            server, task = await started_server()
            reader, writer = await connect(server)
            await send(writer, reader, b"set k 0 0 2\r\nv1\r\n")
            reply = await send(writer, reader, b"gets k\r\n", reply_lines=3)
            header = reply.split(b"\r\n")[0].split(b" ")
            token = int(header[4])
            assert token > 0
            assert (
                await send(
                    writer, reader, b"cas k 0 0 2 %d\r\nv2\r\n" % token
                )
                == b"STORED\r\n"
            )
            # The same token is now stale: the cas bumped the version.
            assert (
                await send(
                    writer, reader, b"cas k 0 0 2 %d\r\nv3\r\n" % token
                )
                == b"EXISTS\r\n"
            )
            reply = await send(writer, reader, b"get k\r\n", reply_lines=3)
            assert reply == b"VALUE k 0 2\r\nv2\r\nEND\r\n"
            writer.close()
            await drain(server, task)

        asyncio.run(scenario())

    def test_cas_token_changes_on_every_store(self):
        async def scenario():
            server, task = await started_server()
            reader, writer = await connect(server)
            tokens = []
            for round_ in range(3):
                await send(writer, reader, b"set k 0 0 1\r\n%d\r\n" % round_)
                reply = await send(
                    writer, reader, b"gets k\r\n", reply_lines=3
                )
                tokens.append(int(reply.split(b"\r\n")[0].split(b" ")[4]))
            assert tokens == sorted(tokens)
            assert len(set(tokens)) == 3
            writer.close()
            await drain(server, task)

        asyncio.run(scenario())

    def test_cas_same_value_still_bumps_version(self):
        # The crc32 bug this replaces: identical bytes used to yield an
        # identical token, so a concurrent writer storing the same value
        # was invisible to cas.
        async def scenario():
            server, task = await started_server()
            reader, writer = await connect(server)
            await send(writer, reader, b"set k 0 0 2\r\nvv\r\n")
            reply = await send(writer, reader, b"gets k\r\n", reply_lines=3)
            token = int(reply.split(b"\r\n")[0].split(b" ")[4])
            # Same bytes, new version.
            await send(writer, reader, b"set k 0 0 2\r\nvv\r\n")
            assert (
                await send(writer, reader, b"cas k 0 0 2 %d\r\nxx\r\n" % token)
                == b"EXISTS\r\n"
            )
            writer.close()
            await drain(server, task)

        asyncio.run(scenario())

    def test_cas_on_missing_key(self):
        async def scenario():
            server, task = await started_server()
            reader, writer = await connect(server)
            assert (
                await send(writer, reader, b"cas nope 0 0 2 5\r\nhi\r\n")
                == b"NOT_FOUND\r\n"
            )
            writer.close()
            await drain(server, task)

        asyncio.run(scenario())

    def test_cas_stats_counted(self):
        async def scenario():
            server, task = await started_server()
            reader, writer = await connect(server)
            await send(writer, reader, b"set k 0 0 1\r\nA\r\n")
            reply = await send(writer, reader, b"gets k\r\n", reply_lines=3)
            token = int(reply.split(b"\r\n")[0].split(b" ")[4])
            await send(writer, reader, b"cas k 0 0 1 %d\r\nB\r\n" % token)
            await send(writer, reader, b"cas k 0 0 1 999999\r\nC\r\n")
            await send(writer, reader, b"cas gone 0 0 1 1\r\nD\r\n")
            writer.close()
            stats = server.stats_dict()
            assert stats["cmd_cas"] == 3
            assert stats["cas_hits"] == 1
            assert stats["cas_badval"] == 1
            assert stats["cas_misses"] == 1
            await drain(server, task)

        asyncio.run(scenario())


class TestAbsoluteExptime:
    def test_future_absolute_timestamp_expires_then(self):
        async def scenario():
            server, task = await started_server(clock_mode="wall")
            reader, writer = await connect(server)
            stamp = int(time.time()) + 3600
            assert (
                await send(writer, reader, b"set k 0 %d 2\r\nhi\r\n" % stamp)
                == b"STORED\r\n"
            )
            reply = await send(writer, reader, b"get k\r\n", reply_lines=3)
            assert reply == b"VALUE k 0 2\r\nhi\r\nEND\r\n"
            writer.close()
            await drain(server, task)

        asyncio.run(scenario())

    def test_past_absolute_timestamp_stores_already_expired(self):
        # memcached replies STORED and the item is immediately gone.
        async def scenario():
            server, task = await started_server(clock_mode="wall")
            reader, writer = await connect(server)
            stamp = int(time.time()) - 3600
            assert (
                await send(writer, reader, b"set k 0 %d 2\r\nhi\r\n" % stamp)
                == b"STORED\r\n"
            )
            assert await send(writer, reader, b"get k\r\n") == b"END\r\n"
            writer.close()
            await drain(server, task)

        asyncio.run(scenario())

    def test_relative_exptime_below_threshold(self):
        async def scenario():
            server, task = await started_server(clock_mode="wall")
            reader, writer = await connect(server)
            await send(writer, reader, b"set k 0 2592000 2\r\nhi\r\n")
            reply = await send(writer, reader, b"get k\r\n", reply_lines=3)
            assert reply == b"VALUE k 0 2\r\nhi\r\nEND\r\n"
            writer.close()
            await drain(server, task)

        asyncio.run(scenario())


    def test_wall_clock_ttl_expires_in_real_time(self):
        """``clock_mode="wall"`` follows the wall clock: nothing else
        ever advances the cache's VirtualClock, so without that a TTL
        never comes due."""

        async def scenario():
            server, task = await started_server(clock_mode="wall")
            reader, writer = await connect(server)
            assert (
                await send(writer, reader, b"set k 0 1 2\r\nhi\r\n")
                == b"STORED\r\n"
            )
            reply = await send(writer, reader, b"get k\r\n", reply_lines=3)
            assert reply == b"VALUE k 0 2\r\nhi\r\nEND\r\n"
            await asyncio.sleep(1.1)
            assert await send(writer, reader, b"get k\r\n") == b"END\r\n"
            writer.close()
            await drain(server, task)

        asyncio.run(scenario())


class TestFlagsPersistence:
    def test_flags_survive_journal_recovery(self, tmp_path):
        async def first_life():
            server, task = await started_server(
                journal_dir=str(tmp_path), fsync="always"
            )
            reader, writer = await connect(server)
            await send(writer, reader, b"set a 7 0 1\r\nA\r\n")
            await send(writer, reader, b"set b 99 0 1\r\nB\r\n")
            await send(writer, reader, b"set c 0 0 1\r\nC\r\n")
            # Abandon without drain: recovery must come from the journal.
            writer.close()
            await abandon(server, task)

        async def second_life():
            server, task = await started_server(
                journal_dir=str(tmp_path), fsync="always"
            )
            reader, writer = await connect(server)
            for key, flags in ((b"a", 7), (b"b", 99), (b"c", 0)):
                reply = await send(
                    writer, reader, b"get %s\r\n" % key, reply_lines=3
                )
                assert reply.startswith(
                    b"VALUE %s %d 1\r\n" % (key, flags)
                ), reply
            writer.close()
            assert await drain(server, task) == 0

        asyncio.run(first_life())
        asyncio.run(second_life())

    def test_flags_survive_checkpoint_plus_tail(self, tmp_path):
        async def first_life():
            server, task = await started_server(
                journal_dir=str(tmp_path),
                fsync="always",
                checkpoint_bytes=256,  # checkpoint early and often
            )
            reader, writer = await connect(server)
            for i in range(30):
                await send(
                    writer, reader, b"set k%02d %d 0 4\r\nv%03d\r\n" % (i, i, i)
                )
            writer.close()
            await abandon(server, task)

        async def second_life():
            server, task = await started_server(
                journal_dir=str(tmp_path), fsync="always"
            )
            reader, writer = await connect(server)
            for i in range(30):
                reply = await send(
                    writer, reader, b"get k%02d\r\n" % i, reply_lines=3
                )
                assert reply == b"VALUE k%02d %d 4\r\nv%03d\r\nEND\r\n" % (
                    i, i, i,
                ), reply
            writer.close()
            assert await drain(server, task) == 0

        asyncio.run(first_life())
        asyncio.run(second_life())

    def test_flags_survive_snapshot_warm_restart(self, tmp_path):
        snapshot = str(tmp_path / "warm.snap")

        async def first_life():
            server, task = await started_server(snapshot_path=snapshot)
            reader, writer = await connect(server)
            await send(writer, reader, b"set k 31337 0 2\r\nhi\r\n")
            writer.close()
            assert await drain(server, task) == 0  # writes the snapshot

        async def second_life():
            server, task = await started_server(snapshot_path=snapshot)
            reader, writer = await connect(server)
            reply = await send(writer, reader, b"get k\r\n", reply_lines=3)
            assert reply == b"VALUE k 31337 2\r\nhi\r\nEND\r\n"
            writer.close()
            await drain(server, task)

        asyncio.run(first_life())
        asyncio.run(second_life())


class TestSidecarBesideTheCache:
    """The two places the sidecar learns about the cache late: items
    that arrived without it, and items that left without telling it."""

    def test_gets_mints_a_version_for_an_item_loaded_from_an_image(
        self, tmp_path
    ):
        """An image loaded into the cache before the server exists (the
        library's warm restart) bypasses the sidecar: the first ``gets``
        mints the item's version, and the gets/cas pair works from it."""
        image = tmp_path / "library.snap"
        original = make_cache()
        original.set(b"k", b"from the image")
        write_snapshot(original, image)
        cache = make_cache()
        assert load_snapshot(cache, image).records == 1

        async def scenario():
            server, task = await started_server(cache)
            assert len(server.meta) == 0
            reader, writer = await connect(server)
            reply = await send(writer, reader, b"gets k\r\n", reply_lines=3)
            header, value, end = reply.split(b"\r\n")[:3]
            assert (value, end) == (b"from the image", b"END")
            token = int(header.split()[4])
            assert header == b"VALUE k 0 14 %d" % token and token > 0
            # The minted version is the item's version until it changes.
            again = await send(writer, reader, b"gets k\r\n", reply_lines=3)
            assert again == reply
            assert (
                await send(writer, reader, b"cas k 7 0 3 %d\r\nnew\r\n" % token)
                == b"STORED\r\n"
            )
            assert (
                await send(writer, reader, b"cas k 7 0 3 %d\r\nold\r\n" % token)
                == b"EXISTS\r\n"
            )
            writer.close()
            assert await drain(server, task) == 0

        asyncio.run(scenario())

    def test_sidecar_is_pruned_under_churn(self):
        """Flagged keys churned through a cache far too small for them:
        evictions never tell the sidecar, so only the periodic prune
        keeps it near the resident set."""
        commands = 4096 * 2

        async def scenario():
            server, task = await started_server(make_cache(capacity=64 * 1024))
            reader, writer = await connect(server)
            for start in range(0, commands, 512):
                writer.write(
                    b"".join(
                        b"set churn:%06d %d 0 32 noreply\r\n%s\r\n"
                        % (i, i % 1000 + 1, b"v" * 32)
                        for i in range(start, start + 512)
                    )
                )
                await writer.drain()
            stats = await send(writer, reader, b"version\r\n")
            assert stats.startswith(b"VERSION")
            resident = server.cache.item_count
            assert resident < commands // 4  # most of them were evicted
            assert server.stats.meta_pruned > 0
            # Bounded by the prune trigger plus one interval's stores.
            assert len(server.meta) <= 2 * resident + 64 + 4096
            assert server.stats_dict()["meta_pruned"] == server.stats.meta_pruned
            writer.close()
            assert await drain(server, task) == 0

        asyncio.run(scenario())


class TestItemMetaStore:
    def test_monotonic_versions(self):
        meta = ItemMetaStore()
        first = meta.on_set(b"a", 1)
        second = meta.on_set(b"a", 2)
        third = meta.on_set(b"b", 0)
        assert first < second < third
        assert meta.get(b"a") == (2, second)

    def test_zero_means_no_live_version(self):
        meta = ItemMetaStore()
        assert meta.cas_of(b"missing") == 0
        token = meta.on_set(b"k", 0)
        assert token > 0
        meta.on_delete(b"k")
        assert meta.cas_of(b"k") == 0

    def test_prune_drops_only_non_resident(self):
        meta = ItemMetaStore()
        meta.on_set(b"live", 1)
        meta.on_set(b"gone", 2)
        dropped = meta.prune({b"live"})
        assert dropped == 1
        assert b"live" in meta
        assert b"gone" not in meta

    def test_memory_model_tracks_len(self):
        meta = ItemMetaStore()
        assert meta.memory_bytes == 0
        meta.on_set(b"k", 0)
        assert meta.memory_bytes > 0
        meta.clear()
        assert meta.memory_bytes == 0
