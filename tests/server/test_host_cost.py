"""What a served request and a resident key cost the serving process.

Three pins: a served request runs a fixed number of Python frames (the
shell around the cache is counted, not timed), it hashes its key once
(the fleet's shard pick rides down to the N-zone index and the Z-zone,
and nothing memoises the hash), and the host heap per resident key at
``cold_get`` scale stays small — the store keeps no entry for a key with
default metadata.
"""

import asyncio
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro.common import hashing
from repro.core.config import ZExpanderConfig
from repro.core.sharded import ShardedZExpander
from repro.server.meta import ItemMetaStore
from repro.server.server import CacheServer, ServerConfig, _Connection

from .test_flags_cas import connect, drain, started_server

LEDGER = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger"


@pytest.fixture
def hash_calls(monkeypatch):
    """Counts :func:`hash_key` calls, patched in every module that
    imported it."""
    calls = [0]
    original = hashing.hash_key

    def counted(key):
        calls[0] += 1
        return original(key)

    for module in list(sys.modules.values()):
        if getattr(module, "hash_key", None) is original:
            monkeypatch.setattr(module, "hash_key", counted)
    return calls


def totals(cache):
    """N-zone evictions (every one is a demotion: markers are off) and
    promotions, summed over the shards."""
    return (
        sum(shard.stats.demotions for shard in cache.shards),
        sum(shard.stats.promotions for shard in cache.shards),
    )


def test_one_hash_per_served_request(hash_calls):
    """A GET or DELETE hashes once, plus once more when a Z-zone hit is
    promoted (the N-zone insert).  A SET hashes twice: the N-zone's
    ``set(key, value)`` is a two-argument seam (the ledger's traced twin
    wraps it so), so the cuckoo index hashes its own key.  Every N-zone
    eviction adds one hash, shared by the index delete and the Z-zone
    put."""
    cache = ShardedZExpander(
        ZExpanderConfig(
            total_capacity=192 * 1024, seed=11, marker_interval_seconds=1e9
        ),
        num_shards=2,
    )

    async def scenario():
        server, task = await started_server(cache)
        reader, writer = await connect(server)

        async def costs(command, base):
            """Hashes one command took, less what its evictions and
            promotions explain."""
            hash_calls[0] = 0
            evictions, promotions = totals(cache)
            writer.write(command + b"version\r\n")
            while not (await reader.readline()).startswith(b"VERSION"):
                pass
            evicted, promoted = totals(cache)
            extra = (evicted - evictions) + (promoted - promotions)
            return hash_calls[0] - extra, base

        seen = set()
        for i in range(2400):
            value = b"%06d" % i * 16
            frame = b"set k%05d 0 0 %d noreply\r\n%s\r\n" % (i, len(value), value)
            seen.add(await costs(frame, 2))
        for _pass in range(2):  # a second Z-zone hit is promoted
            for i in range(0, 2600, 3):
                seen.add(await costs(b"get k%05d\r\n" % i, 1))
        for i in range(0, 2600, 7):
            seen.add(await costs(b"delete k%05d noreply\r\n" % i, 1))
        evictions, promotions = totals(cache)
        assert evictions > 0 and promotions > 0
        writer.close()
        assert await drain(server, task) == 0
        return seen

    assert asyncio.run(scenario()) == {(2, 2), (1, 1)}


class StubTransport:
    """What ``_Connection`` writes to, kept in a list (``write`` is the
    list's own ``append``, so the stub adds no frame to a count)."""

    def __init__(self):
        self.written = []
        self.write = self.written.append

    def is_closing(self):
        return False

    def close(self):
        pass


def served_frames(connection, request):
    """The Python frames one read holding ``request`` runs through
    ``_Connection.buffer_updated``, by ``file:function``, in call order
    (a resumed generator counts again, C functions do not)."""
    connection.get_buffer(len(request))[: len(request)] = request
    calls = []

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            calls.append(f"{Path(code.co_filename).name}:{code.co_name}")

    sys.setprofile(profile)
    try:
        connection.buffer_updated(len(request))
    finally:
        sys.setprofile(None)
    return calls


def test_frames_per_served_request():
    """One GET hit, one GET miss and one SET overwrite of a 12-byte key,
    each one read on a connection of the served 4-shard fleet with
    markers off, then a SET of a new key once every shard's N-zone is
    full, which evicts one item and demotes it to the Z-zone.  Before the
    shell was cut, the first three were 50 / 51 / 69: 13 of a GET's
    frames were the key check's per-byte generator.  Before the core kept
    each number once, the four were 25 / 26 / 43 / 72.  A new frame on
    this path has to be a deliberate edit of these numbers."""
    cache = ShardedZExpander(
        ZExpanderConfig(
            total_capacity=4 * 1024 * 1024, seed=42, marker_interval_seconds=1e9
        ),
        num_shards=4,
    )
    value = b"v" * 100

    async def scenario():
        connection = _Connection(CacheServer(cache, ServerConfig(port=0)))
        transport = StubTransport()
        connection.connection_made(transport)
        for i in range(100):
            served_frames(
                connection, b"set key:%08d 0 0 100\r\n%s\r\n" % (i, value)
            )
        transport.written.clear()
        counts = {
            name: served_frames(connection, request)
            for name, request in (
                ("get hit", b"get key:00000001\r\n"),
                ("get miss", b"get key:99999999\r\n"),
                ("set overwrite", b"set key:00000002 0 0 100\r\n%s\r\n" % value),
            )
        }
        # Fill every shard's N-zone, so a SET of a new key evicts.
        i = 100
        while not all(shard.stats.demotions for shard in cache.shards):
            cache.set(b"key:%08d" % i, value)
            i += 1
        demotions = totals(cache)[0]
        counts["set evicting"] = served_frames(
            connection, b"set key:99999998 0 0 100\r\n%s\r\n" % value
        )
        evicted = totals(cache)[0] - demotions
        connection.connection_lost(None)
        return counts, transport.written, evicted

    counts, written, evicted = asyncio.run(scenario())
    assert written == [
        b"VALUE key:00000001 0 100\r\n%s\r\nEND\r\n" % value,
        b"END\r\n",
        b"STORED\r\n",
        b"STORED\r\n",
    ]
    assert evicted == 1
    assert {name: len(calls) for name, calls in counts.items()} == {
        "get hit": 23,
        "get miss": 26,
        "set overwrite": 36,
        "set evicting": 60,
    }, counts


def test_host_bytes_per_resident_key_at_cold_get_scale():
    """The ``cold_get`` population, stored through the store into the
    served 4 MiB, 4-shard fleet: every key is resident, and the heap the
    store and cache allocated for them — compressed payload included —
    stays under 200 B a key (the dense per-key map and the hash memo
    cost about 460; the list-based N-zone ring and the unpacked block
    metadata about 220)."""
    sys.path.insert(0, str(LEDGER))
    try:
        import workloads
    finally:
        sys.path.remove(str(LEDGER))
    load = workloads.Load("cold_get", 7)
    tracemalloc.start(1)
    try:
        store = ItemMetaStore(
            ShardedZExpander(
                ZExpanderConfig(total_capacity=4 * 1024 * 1024, seed=42),
                num_shards=4,
            )
        )
        for key_id in load.populate_order:
            # The key object is made here, so only the store keeps it.
            store.set(b"key:%08d" % key_id, load.value(key_id, 0))
        traced, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    keys = len(load.populate_order)
    assert keys == 40_000 and store.cache.item_count >= keys
    assert len(store) == 0
    assert traced / keys < 200, traced / keys
