"""The cluster node-kill harness, at test scale (real SIGKILLs)."""

from repro.cluster.chaos import (
    ClusterChaosConfig,
    ClusterChaosReport,
    run_cluster_chaos,
)


class TestClusterChaos:
    def test_one_kill_point_three_nodes(self, tmp_path):
        report = run_cluster_chaos(
            seed=17,
            nodes=3,
            kill_points=1,
            connections=2,
            requests_per_conn=100,
            keys_per_conn=40,
            fsync="always",
            workdir=str(tmp_path),
        )
        assert report.ok, report.violations
        assert report.wrong_bytes == 0
        assert report.acked_write_loss == 0
        assert report.deleted_resurrections == 0
        assert report.ring_violations == 0
        assert report.drain_exits == [0, 0, 0]
        # 1 kill round + the final verify round.
        assert len(report.rounds) == 2
        assert report.rounds[0].ops_issued > 0
        assert report.rounds[0].ring_probed > 0
        assert report.rounds[-1].verified_keys > 0
        # The seeded verdict, byte for byte.
        assert report.render() == (
            "cluster-chaos: nodes=3 kill_points=1 connections=2 "
            "requests_per_conn=100 keys_per_conn=40 seed=17\n"
            "fsync: always\n"
            "wrong_bytes: 0\n"
            "ring_violations: 0\n"
            "acked_write_loss: 0\n"
            "deleted_resurrections: 0\n"
            "final_drain_exits: 0,0,0\n"
            "OK: every kill stayed confined to its arc; recovery and "
            "ring ownership held"
        )

    def test_render_is_deterministic_and_verdict_only(self):
        config = ClusterChaosConfig(seed=9, nodes=3, kill_points=2)
        a = ClusterChaosReport(config=config)
        b = ClusterChaosReport(config=config)
        # Timing-dependent fields must not appear in render().
        a.rounds = []
        b.lost_unsynced = 99
        a.drain_exits = [0, 0, 0]
        b.drain_exits = [0, 0, 0]
        a.finalise()
        b.finalise()
        assert a.render() == b.render()
        assert "lost_unsynced" not in a.render()

    def test_violations_fail_the_report(self):
        config = ClusterChaosConfig(seed=1)
        report = ClusterChaosReport(config=config)
        report.ring_violations = 1
        report.drain_exits = [0, 0, 0]
        report.finalise()
        assert not report.ok
        assert "FAIL" in report.render()

    def test_config_validation(self):
        import pytest

        with pytest.raises(ValueError):
            ClusterChaosConfig(nodes=1).validate()
        with pytest.raises(ValueError):
            ClusterChaosConfig(kill_points=0).validate()
        with pytest.raises(ValueError):
            ClusterChaosConfig(fsync="sometimes").validate()
