"""Protocol fidelity over real sockets: flags, cas, absolute exptime.

These are the memcached behaviours real client libraries depend on:
client flags round-trip byte-exact through get/gets, cas tokens are
monotonic per-item versions (not value hashes), and exptimes above 30
days are absolute Unix timestamps.  Persistence is covered too — flags
must survive every path that writes a served cache: warm restart,
checkpoint + journal recovery, the replica's stream and resync, and
promotion catch-up.
"""

import asyncio
import random
import time

import pytest

from repro.core.config import ZExpanderConfig
from repro.core.sharded import ShardedZExpander
from repro.core.snapshot import load_snapshot, write_snapshot
from repro.server.meta import DEFAULT_META, ItemMetaStore
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
            assert len(server.store) == 0
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
            assert len(server.store) <= 2 * resident + 64 + 4096
            assert server.stats_dict()["meta_pruned"] == server.stats.meta_pruned
            writer.close()
            assert await drain(server, task) == 0

        asyncio.run(scenario())


class TestItemMetaStore:
    def test_monotonic_versions(self):
        store = ItemMetaStore(make_cache())
        first = store.set(b"a", b"1", flags=1)
        second = store.set(b"a", b"2", flags=2)
        third = store.set(b"b", b"3")
        assert first < second < third
        assert store.entries[b"a"] == (2, second, None)
        assert store.cache.get(b"a") == b"2"

    def test_zero_means_no_live_version(self):
        store = ItemMetaStore(make_cache())
        assert store.entries.get(b"missing", DEFAULT_META) == (0, 0, None)
        token = store.set(b"k", b"v")
        assert token > 0
        assert store.delete(b"k") is True
        assert b"k" not in store.entries and store.cache.get(b"k") is None
        assert store.delete(b"k") is False

    def test_prune_drops_only_non_resident(self):
        store = ItemMetaStore(make_cache())
        store.set(b"live", b"v", flags=1)
        # Versions of items that left the cache without telling the
        # store; below the trigger (twice the population + 64) they stay.
        for i in range(60):
            store.version(b"gone%02d" % i, 2)
        assert store.prune() == 0
        for i in range(60, 100):
            store.version(b"gone%02d" % i, 2)
        assert store.prune() == 100
        assert list(store.entries) == [b"live"]

    def test_memory_model_tracks_len(self):
        store = ItemMetaStore(make_cache())
        assert store.memory_bytes == 0
        store.set(b"k", b"v")
        assert store.memory_bytes > 0
        store.delete(b"k")
        assert store.memory_bytes == 0


# -- flags and cas through every write path ----------------------------------------

SCRIPT_KEYS = [b"fk%02d" % i for i in range(24)]


async def gets_token(writer, reader, key):
    """``key``'s cas token, or None on a miss."""
    writer.write(b"gets %s\r\n" % key)
    await writer.drain()
    header = await reader.readline()
    if header == b"END\r\n":
        return None
    await reader.readexactly(int(header.split()[3]) + 2)
    assert await reader.readline() == b"END\r\n"
    return int(header.split()[4])


async def run_script(server, seed, ops):
    """Seeded flagged set / cas / delete traffic against ``server``."""
    rng = random.Random(seed)
    reader, writer = await connect(server)
    for step in range(ops):
        key = rng.choice(SCRIPT_KEYS)
        flags = rng.randrange(1 << 32)
        value = b"%s-%d-%d" % (key, seed, step)
        draw = rng.random()
        if draw < 0.15:
            reply = await send(writer, reader, b"delete %s\r\n" % key)
            assert reply in (b"DELETED\r\n", b"NOT_FOUND\r\n")
            continue
        if draw < 0.4:
            token = await gets_token(writer, reader, key)
            command = b"cas %s %d 0 %d %d\r\n%s\r\n" % (
                key, flags, len(value), token or 1, value
            )
            expected = b"STORED\r\n" if token else b"NOT_FOUND\r\n"
        else:
            command = b"set %s %d 0 %d\r\n%s\r\n" % (
                key, flags, len(value), value
            )
            expected = b"STORED\r\n"
        assert await send(writer, reader, command) == expected
    writer.close()


async def served(server):
    """key -> (flags, value) for every script key ``server`` holds."""
    reader, writer = await connect(server)
    got = {}
    for key in SCRIPT_KEYS:
        writer.write(b"get %s\r\n" % key)
        await writer.drain()
        header = await reader.readline()
        if header == b"END\r\n":
            continue
        _verb, _key, flags, length = header.split()
        value = (await reader.readexactly(int(length) + 2))[:-2]
        assert await reader.readline() == b"END\r\n"
        got[key] = (int(flags), value)
    writer.close()
    return got


async def assert_serves(server, expected):
    """``server`` holds exactly ``expected``, takes a fresh cas on every
    key, and its store versions every key its walk yields."""
    assert await served(server) == expected
    reader, writer = await connect(server)
    for key, (flags, value) in expected.items():
        token = await gets_token(writer, reader, key)
        command = b"cas %s %d 0 %d %d\r\n%s\r\n" % (
            key, flags, len(value), token, value
        )
        assert await send(writer, reader, command) == b"STORED\r\n"
    writer.close()
    walked = [key for key, _value, _flags in server.store.walk()]
    assert sorted(walked) == sorted(expected)
    assert all(key in server.store.entries for key in walked)


async def promote(replica, catch_up_dir=None):
    reader, writer = await connect(replica)
    command = b"promote\r\n"
    if catch_up_dir is not None:
        command = b"promote %s\r\n" % str(catch_up_dir).encode()
    assert await send(writer, reader, command) == b"PROMOTED\r\n"
    writer.close()


async def kill(server, task):
    """Stop a primary as SIGKILL would: no drain, no final checkpoint."""
    await server.repl_source.close()
    await abandon(server, task)


async def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        await asyncio.sleep(0.01)


def caught_up(replica, primary):
    return lambda: replica.repl_client.position == primary.durability.writer.position


async def via_snapshot(tmp_path):
    snapshot = str(tmp_path / "warm.snap")
    primary, task = await started_server(snapshot_path=snapshot)
    await run_script(primary, 1, 160)
    expected = await served(primary)
    assert await drain(primary, task) == 0
    restarted, task = await started_server(snapshot_path=snapshot)
    assert restarted.stats.snapshot_loaded == len(expected)
    return expected, restarted, task


async def via_recovery(tmp_path):
    journal = dict(journal_dir=str(tmp_path), fsync="always")
    primary, task = await started_server(checkpoint_bytes=512, **journal)
    await run_script(primary, 2, 160)
    expected = await served(primary)
    assert primary.durability.stats.checkpoints_written >= 2
    await abandon(primary, task)
    recovered, task = await started_server(**journal)
    recovery = recovered.durability.last_recovery
    assert recovery.checkpoint_loaded and recovery.replayed_records
    return expected, recovered, task


def primary_config(tmp_path, **overrides):
    return dict(journal_dir=str(tmp_path), fsync="always", repl_port=0, **overrides)


async def replica_of(primary, cache=None):
    return await started_server(
        cache,
        role="replica",
        primary_port=primary.repl_source.port,
        stale_grace=5.0,
    )


async def via_stream(tmp_path):
    primary, ptask = await started_server(**primary_config(tmp_path))
    replica, rtask = await replica_of(primary)
    await run_script(primary, 3, 160)
    expected = await served(primary)
    await wait_until(caught_up(replica, primary))
    await promote(replica)
    assert await drain(primary, ptask) == 0
    return expected, replica, rtask


async def via_resync(tmp_path):
    primary, ptask = await started_server(
        **primary_config(tmp_path, journal_segment_bytes=512, checkpoint_bytes=1024)
    )
    await run_script(primary, 4, 160)
    expected = await served(primary)
    # Whatever the late joiner held before is gone or replaced: these
    # reached its cache without its store.
    stale = make_cache()
    for key in SCRIPT_KEYS:
        stale.set(key, b"stale")
    replica, rtask = await replica_of(primary, stale)
    await wait_until(
        lambda: replica.replication_stats.snapshots_applied
        and caught_up(replica, primary)()
    )
    await promote(replica)
    assert await drain(primary, ptask) == 0
    return expected, replica, rtask


async def via_catch_up(tmp_path, mode):
    primary, ptask = await started_server(**primary_config(tmp_path))
    replica, rtask = await replica_of(primary)
    await run_script(primary, 5, 80)
    await wait_until(caught_up(replica, primary))
    replica.repl_client.cancel()  # the second half arrives by catch-up only
    await run_script(primary, 6, 80)
    expected = await served(primary)
    if mode == "tail":
        await kill(primary, ptask)
    else:
        # The final checkpoint prunes the segment the replica stopped in.
        assert await drain(primary, ptask) == 0
    await promote(replica, tmp_path)
    caught = replica.incidents[-1].split(f"catch-up {mode}: ")[1]
    assert int(caught.split()[0]) > 0, replica.incidents
    return expected, replica, rtask


WRITE_PATHS = {
    "snapshot": via_snapshot,
    "recovery": via_recovery,
    "stream": via_stream,
    "resync": via_resync,
    "catch_up_tail": lambda tmp_path: via_catch_up(tmp_path, "tail"),
    "catch_up_full": lambda tmp_path: via_catch_up(tmp_path, "full"),
}


@pytest.mark.parametrize("path", list(WRITE_PATHS))
def test_flags_and_cas_through_every_write_path(tmp_path, path):
    """A seeded script of flagged set / cas / delete on a primary, then one
    path that fills a second server from it: that server answers every
    key with the primary's value and flags, takes a fresh cas, and its
    store holds a version of every key it walks."""

    async def scenario():
        expected, server, task = await WRITE_PATHS[path](tmp_path)
        assert len(expected) > 8
        await assert_serves(server, expected)
        assert await drain(server, task) == 0

    asyncio.run(scenario())
