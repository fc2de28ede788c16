"""The `stats` command round-trips the full registry over the wire.

The contract: a ``stats`` reply is three text keys plus the server's
``registry.summary()`` under its wire names — there is no number on the
wire the registry does not hold — and no wire name that has shipped
(``stats_wire_names.txt``) ever goes missing.
"""

import asyncio
import pathlib
from unittest import mock

import pytest

from repro.core.config import ZExpanderConfig
from repro.core.zexpander import ZExpander
from repro.server import protocol
from repro.server.client import MemcacheClient
from repro.server.server import CacheServer, ServerConfig, wire_name
from tests.metrics.exposition import to_prometheus, untimed, untimed_summary

from .test_framing import MAX_VALUE_BYTES, build_script
from .test_server import make_cache, running_server

#: Values that are deliberately non-numeric on the wire.
_TEXT_KEYS = {"version", "state", "replication_role"}

#: Every key the reply had before the registry became the reply.
SHIPPED_NAMES = [
    line
    for line in pathlib.Path(__file__)
    .with_name("stats_wire_names.txt")
    .read_text()
    .splitlines()
    if line and not line.startswith("#")
]


async def serve_script(inspect, script, shards=0, **config_kwargs):
    """Feed ``script`` (which ends in ``quit``) to a fresh tick-clock
    server; returns ``inspect(server)``, taken before the drain."""
    with mock.patch.object(protocol, "MAX_VALUE_BYTES", MAX_VALUE_BYTES):
        async with running_server(
            make_cache(shards=shards), **config_kwargs
        ) as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(script)
            await asyncio.wait_for(reader.read(), 10.0)
            writer.close()
            return inspect(server)


class TestWireContract:
    @pytest.mark.parametrize("shards", [0, 4])
    @pytest.mark.parametrize("journalled", [False, True])
    def test_reply_is_the_registry_under_its_wire_names(
        self, shards, journalled, tmp_path
    ):
        def inspect(server):
            wire = server.stats_dict()
            registry = server.registry
            stable = untimed_summary(registry)
            named = {
                wire_name(name, owned=not registry.is_view(name)): value
                for name, value in stable.items()
            }
            # No two registry names land on one wire name, and there is
            # no number on the wire the registry does not hold.
            assert len(named) == len(stable)
            assert len(wire) == len(_TEXT_KEYS) + len(registry.summary())
            for name, value in named.items():
                assert wire[name] == value, name
            # What memcached and the ledger named reads the cache itself.
            assert wire["curr_items"] == server.cache.item_count
            assert wire["bytes"] == server.cache.used_bytes
            assert wire["limit_maxbytes"] == server.cache.capacity
            assert wire["cache_hits_nzone"] == stable["cache_get_hits_nzone"]
            assert wire["cmd_get"] == server.stats.cmd_get > 10
            return wire

        kwargs = dict(journal_dir=str(tmp_path), repl_port=0) if journalled else {}
        wire = asyncio.run(serve_script(inspect, build_script(3), shards, **kwargs))
        shipped = [
            name
            for name in SHIPPED_NAMES
            if journalled or not name.startswith("durability_")
        ]
        assert len(shipped) == (114 if journalled else 95)
        assert not set(shipped) - set(wire)
        assert len(wire) >= 126

    def test_a_served_fleet_reports_the_nz_boundary(self):
        wire = asyncio.run(
            serve_script(CacheServer.stats_dict, build_script(3), shards=4)
        )
        assert (
            wire["cache_nzone_capacity_bytes"] + wire["cache_zzone_capacity_bytes"]
            == wire["limit_maxbytes"]
        )
        assert wire["cache_serviced_nzone"] > 0

    def test_untimed_snapshot_is_a_function_of_the_script(self):
        # Wall-clock admission (the default), tick-clock cache: what is
        # left after the ``timed`` series may not move between runs.
        def stable(server):
            return untimed(server.registry)

        first = asyncio.run(serve_script(stable, build_script(5), shards=2))
        assert "admission_tokens" not in first
        assert "replication_pressure" not in first
        assert asyncio.run(serve_script(stable, build_script(5), shards=2)) == first

    def test_swallowed_store_failure_is_an_incident(self):
        async def scenario():
            async with running_server() as server:
                def refuse(key, value, ttl=None, flags=0):
                    raise OSError("disk full")

                server.cache.set = refuse
                client = MemcacheClient(port=server.port)
                assert (await client.stats())["incidents"] == "0"
                with pytest.raises(Exception, match="set failed: OSError"):
                    await client.set(b"k", b"v")
                assert (await client.stats())["incidents"] == "1"
                assert "disk full" in server.incidents[0]
                await client.close()

        asyncio.run(scenario())


async def start_server(**config_kwargs):
    cache = ZExpander(ZExpanderConfig(total_capacity=128 * 1024))
    server = CacheServer(cache, ServerConfig(port=0, **config_kwargs))
    await server.start()
    task = asyncio.create_task(server.run())
    return server, task


class TestStatsRoundTrip:
    def test_wire_stats_match_stats_dict(self):
        async def scenario():
            server, task = await start_server()
            client = MemcacheClient(port=server.port)
            await client.set(b"alpha", b"x" * 100)
            await client.get(b"alpha")
            await client.get(b"missing")
            wire = await client.stats()
            local = server.stats_dict()
            # Every locally-exposed key crossed the wire.  Values for
            # monotonic counters may tick between the two reads (the
            # stats request itself is a command), so compare keys, then
            # values for keys the extra request cannot move.
            assert set(local) <= set(wire)
            assert wire["curr_items"] == str(local["curr_items"])
            assert wire["version"] == str(local["version"])
            await client.close()
            server.begin_drain()
            await task

        asyncio.run(scenario())

    def test_registry_metrics_appear_on_the_wire(self):
        async def scenario():
            server, task = await start_server()
            client = MemcacheClient(port=server.port)
            await client.set(b"k", b"v" * 64)
            await client.get(b"k")
            wire = await client.stats()
            # Histograms flatten to _count/_sum/_p50/_p99 summaries.
            assert int(wire["metrics_server_request_seconds_count"]) >= 2
            assert float(wire["metrics_server_request_seconds_sum"]) > 0.0
            assert float(wire["metrics_server_request_seconds_p99"]) >= 0.0
            assert int(wire["metrics_server_set_value_bytes_count"]) == 1
            assert float(wire["metrics_server_set_value_bytes_sum"]) == 64.0
            assert int(wire["metrics_server_get_value_bytes_count"]) == 1
            await client.close()
            server.begin_drain()
            await task

        asyncio.run(scenario())

    def test_every_wire_value_parses(self):
        async def scenario():
            server, task = await start_server()
            client = MemcacheClient(port=server.port)
            await client.set(b"k", b"v")
            wire = await client.stats()
            for name, value in wire.items():
                if name in _TEXT_KEYS:
                    continue
                float(value)  # ints parse as floats too; raises on junk
            await client.close()
            server.begin_drain()
            await task

        asyncio.run(scenario())

    def test_prometheus_endpoint_renders(self):
        async def scenario():
            server, task = await start_server()
            client = MemcacheClient(port=server.port)
            await client.set(b"k", b"v")
            await client.get(b"k")
            text = to_prometheus(server.registry)
            assert "# TYPE repro_server_request_seconds histogram" in text
            assert 'repro_server_request_seconds_bucket{le="+Inf"}' in text
            assert "repro_admission_admitted" in text
            assert "repro_cache_gets" in text
            # Golden-comparable form excludes wall-clock metrics.
            stable = to_prometheus(server.registry, include_timing=False)
            assert "server_request_seconds" not in stable
            await client.close()
            server.begin_drain()
            await task

        asyncio.run(scenario())

    def test_fastpath_counters_cross_the_wire(self):
        async def scenario():
            cache = ZExpander(
                ZExpanderConfig(total_capacity=128 * 1024, append_region_bytes=512)
            )
            server = CacheServer(cache, ServerConfig(port=0))
            await server.start()
            task = asyncio.create_task(server.run())
            client = MemcacheClient(port=server.port)
            # Enough volume to spill past the N-zone into Z-zone blocks.
            for i in range(600):
                await client.set(b"fp%04d" % i, b"w" * 160)
            for i in range(600):
                await client.get(b"fp%04d" % i)
            wire = await client.stats()
            for name in (
                "fastpath_staged_puts",
                "fastpath_staging_flushes",
                "fastpath_container_cache_hits",
            ):
                assert name in wire
                assert int(wire[name]) >= 0
            assert int(wire["fastpath_staged_puts"]) == (
                cache.zzone.stats.staged_puts
            )
            assert int(wire["fastpath_staged_puts"]) > 0
            await client.close()
            server.begin_drain()
            await task

        asyncio.run(scenario())
