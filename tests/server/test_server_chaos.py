"""Loadgen + over-the-wire chaos: verification, determinism, verdicts."""

import asyncio

import pytest

from repro.core.config import ZExpanderConfig
from repro.core.zexpander import ZExpander
from repro.faults.plan import FaultPlan, FaultSpec
from repro.server.chaos import default_server_plan, run_server_chaos
from repro.server.loadgen import (
    LoadConfig,
    expected_value,
    key_name,
    run_loadgen,
)
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


class TestLoadgen:
    def test_clean_run_verifies_and_passes(self):
        async def scenario():
            cache = ZExpander(ZExpanderConfig(total_capacity=256 * 1024))
            server = CacheServer(cache, ServerConfig(port=0))
            await server.start()
            task = asyncio.create_task(server.run())
            report = await run_loadgen(
                LoadConfig(
                    port=server.port,
                    connections=2,
                    requests_per_conn=300,
                    keys_per_conn=60,
                    seed=4,
                )
            )
            server.begin_drain()
            await task
            return report

        report = asyncio.run(scenario())
        assert report.ok, report.violations
        assert report.wrong_bytes == 0
        assert report.stale_reads == 0
        assert report.issued_gets + report.issued_sets + report.issued_deletes == 600
        assert report.verify_resident == report.verify_expected  # nothing lost
        assert report.hits > 0

    def test_detects_wrong_bytes_from_a_lying_server(self):
        """A cache that mangles stored values must fail the verdict."""

        class LyingCache(ZExpander):
            def get(self, key):
                value = super().get(key)
                if value is not None and key.endswith(b"3"):
                    return value[:-1] + b"!"  # flip the last byte
                return value

        async def scenario():
            cache = LyingCache(ZExpanderConfig(total_capacity=256 * 1024))
            server = CacheServer(cache, ServerConfig(port=0))
            await server.start()
            task = asyncio.create_task(server.run())
            report = await run_loadgen(
                LoadConfig(
                    port=server.port,
                    connections=2,
                    requests_per_conn=200,
                    keys_per_conn=40,
                    seed=4,
                )
            )
            server.begin_drain()
            await task
            return report

        report = asyncio.run(scenario())
        assert report.wrong_bytes > 0
        assert not report.ok

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
                )
            )
            server.begin_drain()
            await task
            return report.render()

        first = asyncio.run(one_run())
        second = asyncio.run(one_run())
        assert first == second


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
        assert report.load.wrong_bytes == 0
        assert report.load.crashes == 0

    def test_wire_faults_fired(self, chaos_pair):
        report, _ = chaos_pair
        assert sum(report.load.injected.values()) > 0

    def test_overload_probe_sheds_zzone_first_within_latency_bound(
        self, chaos_pair
    ):
        report, _ = chaos_pair
        probe = report.probe
        assert probe.shed_total > 0
        assert probe.shed_zzone > 0
        assert probe.overload_errors_seen == probe.shed_total
        assert probe.latency_ratio <= 2.0
        assert probe.max_inflight <= probe.inflight_hard

    def test_same_seed_renders_byte_identical(self, chaos_pair):
        first, second = chaos_pair
        assert first.render() == second.render()

    def test_restart_check_counts_distinct_keys_not_copies(self, tmp_path):
        """``item_count`` counts a key and its not-yet-removed Z-zone
        shadow twice; a restart replays each key once, so judging it by
        ``item_count`` reads shadows as lost items (0.887 "restored" at
        ``--seed 7`` with promotion by postponed removal)."""
        from repro.common.clock import VirtualClock
        from repro.core.sharded import ShardedZExpander
        from repro.core.snapshot import load_snapshot, write_snapshot
        from repro.server.chaos import _distinct_resident

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
        assert _distinct_resident(cache) == len(resident)
        assert cache.item_count > 1.05 * len(resident)
        path = tmp_path / "fleet.snap"
        write_snapshot(cache, path)
        restarted = fleet()
        load_snapshot(restarted, path)
        assert _distinct_resident(restarted) >= 0.95 * _distinct_resident(cache)

    def test_default_plan_covers_cache_and_wire_sites(self):
        plan = default_server_plan(3)
        assert "conn.reset" in plan.sites and "conn.stall" in plan.sites
        assert "block.bitflip" in plan.sites

    def test_violations_surface_in_render_and_exit_path(self, tmp_path):
        # A plan of nothing but immediate resets with no limit would
        # stall forever; instead check the judge path directly: a report
        # whose loadgen saw wrong bytes must not be ok.
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
            overload=False,
        )
        assert report.ok
        report.load.wrong_bytes = 3
        report.violations.clear()
        report.load.violations.clear()
        report.load.finalise()
        from repro.server.chaos import _judge

        _judge(report)
        assert not report.ok
        assert "FAIL" in report.render()
