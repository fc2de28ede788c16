"""The `stats` command round-trips the full registry over the wire."""

import asyncio

from repro.core.config import ZExpanderConfig
from repro.core.zexpander import ZExpander
from repro.server.client import MemcacheClient
from repro.server.server import CacheServer, ServerConfig

#: Values that are deliberately non-numeric on the wire.
_TEXT_KEYS = {"version", "state", "replication_role"}


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
            text = server.prometheus_text()
            assert "# TYPE repro_server_request_seconds histogram" in text
            assert 'repro_server_request_seconds_bucket{le="+Inf"}' in text
            assert "repro_admission_admitted" in text
            assert "repro_cache_gets" in text
            # Golden-comparable form excludes wall-clock metrics.
            stable = server.prometheus_text(include_timing=False)
            assert "server_request_seconds" not in stable
            await client.close()
            server.begin_drain()
            await task

        asyncio.run(scenario())

    def test_fastpath_counters_cross_the_wire(self):
        async def scenario():
            cache = ZExpander(
                ZExpanderConfig(
                    total_capacity=128 * 1024,
                    append_region_bytes=512,
                    decompressed_cache_blocks=8,
                )
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
                "fastpath_container_cache_misses",
                "fastpath_container_cache_bytes",
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
