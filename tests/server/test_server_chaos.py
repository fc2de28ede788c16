"""Loadgen + over-the-wire chaos: verification, determinism, verdicts."""

import asyncio

import pytest

from repro.common.errors import RequestTimeoutError
from repro.core.config import ZExpanderConfig
from repro.core.zexpander import ZExpander
from repro.faults.plan import FaultPlan, FaultSpec
from repro.harness import expected_value, key_name
from repro.server.chaos import default_server_plan, run_server_chaos
from repro.server.client import MemcacheClient
from repro.server.loadgen import READ_MOSTLY, LoadConfig, run_loadgen
from repro.server.server import CacheServer, ServerConfig


class TestExpectedValue:
    def test_pure_and_distinct(self):
        a = expected_value(0, 1, 2, 3)
        assert a == expected_value(0, 1, 2, 3)
        # Any coordinate change changes the bytes.
        assert a != expected_value(1, 1, 2, 3)
        assert a != expected_value(0, 2, 2, 3)
        assert a != expected_value(0, 1, 3, 3)
        assert a != expected_value(0, 1, 2, 4)

    def test_sizes_vary_but_bounded(self):
        sizes = {
            len(expected_value(0, 0, i, 1)) for i in range(200)
        }
        assert len(sizes) > 20  # not all one size
        assert min(sizes) >= 32 and max(sizes) < 600

    def test_key_names_disjoint_by_connection(self):
        keys = {key_name(c, i) for c in range(4) for i in range(50)}
        assert len(keys) == 200


def _loadgen_against(cache, requests_per_conn, keys_per_conn):
    """Two seed-4 connections against an in-process server over ``cache``."""

    async def scenario():
        server = CacheServer(cache, ServerConfig(port=0))
        await server.start()
        task = asyncio.create_task(server.run())
        report = await run_loadgen(
            LoadConfig(
                port=server.port,
                connections=2,
                requests_per_conn=requests_per_conn,
                keys_per_conn=keys_per_conn,
                seed=4,
                **READ_MOSTLY,
            )
        )
        server.begin_drain()
        await task
        return report

    return asyncio.run(scenario())


class TestLoadgen:
    def test_clean_run_verifies_and_passes(self):
        report = _loadgen_against(
            ZExpander(ZExpanderConfig(total_capacity=256 * 1024)), 300, 60
        )
        assert report.ok, report.violations
        assert report.wrong_bytes == 0
        assert report.deleted_resurrections == 0
        traffic, swept = report.rounds
        assert traffic.ops_issued == 600
        assert traffic.hits > 0
        # Nothing lost: every key the oracle knows was judged, none missing.
        assert swept.verified_keys > 0 and swept.lost_unsynced == 0

    def test_detects_wrong_bytes_from_a_lying_server(self):
        """A cache that mangles stored values must fail the verdict."""

        class LyingCache(ZExpander):
            def get(self, key):
                value = super().get(key)
                if value is not None and key.endswith(b"3"):
                    return value[:-1] + b"!"  # flip the last byte
                return value

        report = _loadgen_against(
            LyingCache(ZExpanderConfig(total_capacity=256 * 1024)), 200, 40
        )
        assert report.wrong_bytes > 0
        assert not report.ok

    def test_detects_the_previous_version_of_an_overwritten_key(self):
        """Well-formed bytes of the wrong version: what a resurfacing
        stale copy (a postponed removal gone wrong) would serve."""

        class StaleCache(ZExpander):
            previous = {}

            def set(self, key, value, **kwargs):
                self.previous[key] = super().get(key)
                return super().set(key, value, **kwargs)

            def get(self, key):
                value = super().get(key)
                if value is not None and self.previous.get(key) is not None:
                    return self.previous[key]
                return value

        report = _loadgen_against(
            StaleCache(ZExpanderConfig(total_capacity=256 * 1024)), 200, 40
        )
        assert report.wrong_bytes > 0
        assert report.violations == [
            f"{report.wrong_bytes} GETs returned wrong bytes"
        ]

    def test_sweep_batch_that_raises_fails_the_run(self, monkeypatch):
        """A sweep that could not read a batch verified nothing there."""
        get_many = MemcacheClient.get_many

        async def get_many_or_time_out(self, keys):
            if len(keys) > 1 and keys[0].startswith(b"lg:01"):
                raise RequestTimeoutError("request missed its 2.0s deadline")
            return await get_many(self, keys)

        monkeypatch.setattr(MemcacheClient, "get_many", get_many_or_time_out)
        report = _loadgen_against(
            ZExpander(ZExpanderConfig(total_capacity=256 * 1024)), 200, 40
        )
        assert report.wrong_bytes == 0
        unverified = report.rounds[1].sweeps[0].unverified
        assert unverified > 0
        assert report.violations == [f"sweep could not verify {unverified} keys"]
        assert "FAIL (1 violations)" in report.render()

    def test_issued_counts_deterministic_across_runs(self):
        async def one_run():
            cache = ZExpander(ZExpanderConfig(total_capacity=256 * 1024))
            server = CacheServer(cache, ServerConfig(port=0))
            await server.start()
            task = asyncio.create_task(server.run())
            report = await run_loadgen(
                LoadConfig(
                    port=server.port,
                    connections=3,
                    requests_per_conn=150,
                    keys_per_conn=30,
                    seed=9,
                    **READ_MOSTLY,
                )
            )
            server.begin_drain()
            await task
            return report.render()

        first = asyncio.run(one_run())
        second = asyncio.run(one_run())
        assert first == second


_SEED_13_RENDER = """\
server-chaos: connections=3 requests_per_conn=400 keys_per_conn=80 shards=2 seed=13
plan: seed=13 sites=block.bitflip,codec.compress,codec.decompress,conn.reset,conn.stall
issued: gets=841 sets=342 deletes=17
injected(wire): conn.reset=2 conn.stall=3
wrong_bytes: 0
stale_reads: 0
crashes: 0
drain_exit_code: 0
invariant_failures: 0
restart_warm: yes
overload: sheds=391 shed_zzone=171 latency_ratio=0.870
OK: served, shed, drained, and restarted cleanly"""


@pytest.fixture(scope="module")
def chaos_pair(tmp_path_factory):
    """Two same-seed chaos runs at smoke scale (shared: they're slow)."""
    kwargs = dict(
        seed=13,
        connections=3,
        requests_per_conn=400,
        keys_per_conn=80,
    )
    first = run_server_chaos(
        workdir=str(tmp_path_factory.mktemp("chaos-a")), **kwargs
    )
    second = run_server_chaos(
        workdir=str(tmp_path_factory.mktemp("chaos-b")), **kwargs
    )
    return first, second


class TestServerChaos:
    def test_survives_and_restarts(self, chaos_pair):
        report, _ = chaos_pair
        assert report.ok, report.violations
        assert report.drain_exit_code == 0
        assert report.restart_ratio >= 0.95
        assert report.wrong_bytes == 0
        assert report.crashes == 0
        # One oracle judged the server before the drain and after the
        # restart: the same keys, twice.
        _traffic, before, after = report.rounds
        assert before.verified_keys == after.verified_keys > 0

    def test_wire_faults_fired(self, chaos_pair):
        report, _ = chaos_pair
        assert sum(report.injected.values()) > 0

    def test_overload_probe_sheds_zzone_first_within_latency_bound(
        self, chaos_pair
    ):
        report, _ = chaos_pair
        probe = report.probe
        assert probe.shed_total > 0
        assert probe.shed_zzone > 0
        assert probe.overload_errors_seen == probe.shed_total
        assert probe.latency_ratio <= 2.0

    def test_same_seed_renders_byte_identical(self, chaos_pair):
        first, second = chaos_pair
        assert first.render() == second.render()

    def test_render_golden(self, chaos_pair):
        # Taken before the loadgen and this driver moved onto the harness
        # kit (= `cli chaos --server --connections 3 --requests 1200
        # --keys 240 --seed 13`): same op draws, same wire-fault firings,
        # same probe, same verdict.
        assert chaos_pair[0].render() == _SEED_13_RENDER

    def test_restart_check_counts_distinct_keys_not_copies(self, tmp_path):
        """``item_count`` counts a key and its not-yet-removed Z-zone
        shadow twice; a restart replays each key once, so judging it by
        ``item_count`` reads shadows as lost items (0.887 "restored" at
        ``--seed 7`` with promotion by postponed removal).  The walk the
        image is written from yields each key once, so its length is the
        count the check compares."""
        from repro.common.clock import VirtualClock
        from repro.core.sharded import ShardedZExpander
        from repro.core.snapshot import (
            iter_cache_items,
            load_snapshot,
            write_snapshot,
        )

        def resident_keys(cache):
            keys = [key for key, _value in iter_cache_items(cache)]
            assert len(keys) == len(set(keys))
            return len(keys)

        def fleet():
            config = ZExpanderConfig(
                total_capacity=256 * 1024, promotion_policy="always", seed=3
            )
            return ShardedZExpander(config, num_shards=2, clock=VirtualClock())

        cache = fleet()
        keys = [b"key:%06d" % i for i in range(1500)]
        for key in keys:
            cache.clock.advance(1e-5)
            cache.set(key, key * 6)
        for key in keys[:400]:  # Z-zone hits: promoted, copies left behind
            cache.clock.advance(1e-5)
            assert cache.get(key) == key * 6
        resident = {key for key in keys if key in cache}
        assert resident_keys(cache) == len(resident)
        assert cache.item_count > 1.05 * len(resident)
        path = tmp_path / "fleet.snap"
        assert write_snapshot(cache, path) == len(resident)
        restarted = fleet()
        load_snapshot(restarted, path)
        assert resident_keys(restarted) >= 0.95 * resident_keys(cache)

    def test_default_plan_covers_cache_and_wire_sites(self):
        plan = default_server_plan(3)
        assert "conn.reset" in plan.sites and "conn.stall" in plan.sites
        assert "block.bitflip" in plan.sites

    def test_violations_surface_in_render_and_exit_path(self, tmp_path):
        # A plan of nothing but immediate resets with no limit would
        # stall forever; instead check the verdict path directly: a
        # report whose traffic saw wrong bytes must not be ok.
        plan = FaultPlan(
            seed=1, specs=(FaultSpec(site="conn.reset", rate=0.01, limit=2),)
        )
        report = run_server_chaos(
            seed=1,
            connections=2,
            requests_per_conn=150,
            keys_per_conn=30,
            plan=plan,
            workdir=str(tmp_path),
        )
        assert report.ok
        report.wrong_bytes = 3
        report.finalise()
        assert not report.ok
        assert "FAIL" in report.render()
