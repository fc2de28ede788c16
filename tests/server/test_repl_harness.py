"""The partition/lag replication harness, at test scale (real children)."""

from repro.server.replchaos import (
    ReplChaosConfig,
    ReplChaosReport,
    build_plan,
    run_replication_chaos,
)


class TestPlan:
    def test_plan_is_seeded_and_covers_every_link_kind(self):
        config = ReplChaosConfig(seed=5, link_points=10)
        plan = build_plan(config)
        assert plan == build_plan(config)  # pure function of the seed
        assert plan != build_plan(ReplChaosConfig(seed=6, link_points=10))
        assert len(plan) == 12
        for kind in ("partition", "stall", "reset", "resync"):
            assert kind in plan
        assert plan[-2:] == ["kill_restart", "kill_promote"]


class TestCampaign:
    def test_small_campaign_fsync_always(self, tmp_path):
        report = run_replication_chaos(
            seed=23,
            link_points=2,
            connections=2,
            requests_per_conn=60,
            keys_per_conn=40,
            fsync="always",
            workdir=str(tmp_path),
        )
        assert report.ok, report.violations
        assert report.wrong_bytes == 0
        assert report.stale_reads == 0
        assert report.acked_write_loss == 0
        assert report.deleted_resurrections == 0
        assert report.promote_ok and report.promoted_write_ok
        assert report.final_drain_exit == 0
        # 2 link rounds + kill_restart + kill_promote.
        assert len(report.rounds) == 4
        assert all(outcome.ops_issued > 0 for outcome in report.rounds)
        assert report.rounds[0].verified_keys > 0
        # The seeded verdict, byte for byte.
        assert report.render() == (
            "replication-chaos: link_points=2 connections=2 "
            "requests_per_conn=60 keys_per_conn=40 seed=23\n"
            "fsync: always  stale_grace: 0.4\n"
            "plan: partition stall kill_restart kill_promote\n"
            "wrong_bytes: 0\n"
            "stale_reads: 0\n"
            "acked_write_loss: 0\n"
            "deleted_resurrections: 0\n"
            "forced_resyncs: 0/0\n"
            "promotion: ok, writes ok\n"
            "final_drain_exit: 0\n"
            "OK: no wrong bytes, no stale serves beyond the bound, "
            "no acked loss across promotion"
        )


class TestReportContract:
    def test_render_is_verdict_only(self):
        config = ReplChaosConfig(seed=9, fsync="always")
        report = ReplChaosReport(config=config)
        report.plan = build_plan(config)
        report.promote_ok = True
        report.promoted_write_ok = True
        report.forced_resyncs_seen = report.plan.count("resync")
        report.final_drain_exit = 0
        report.finalise()
        assert report.ok
        text = report.render()
        assert "seed=9" in text
        assert "wrong_bytes: 0" in text
        assert text.endswith(
            "OK: no wrong bytes, no stale serves beyond the bound, "
            "no acked loss across promotion"
        )
        # Timing-dependent observables stay out of stdout.
        assert "issued" not in text

    def test_stale_reads_fail_the_report(self):
        config = ReplChaosConfig(fsync="always")
        report = ReplChaosReport(config=config, stale_reads=1)
        report.plan = build_plan(config)
        report.promote_ok = True
        report.promoted_write_ok = True
        report.forced_resyncs_seen = report.plan.count("resync")
        report.final_drain_exit = 0
        report.finalise()
        assert not report.ok
        assert "FAIL" in report.render()

    def test_missing_forced_resync_fails_the_report(self):
        config = ReplChaosConfig(fsync="always")
        report = ReplChaosReport(config=config)
        report.plan = build_plan(config)
        assert report.plan.count("resync") >= 1
        report.promote_ok = True
        report.promoted_write_ok = True
        report.forced_resyncs_seen = 0
        report.final_drain_exit = 0
        report.finalise()
        assert not report.ok

    def test_failed_promotion_fails_the_report(self):
        config = ReplChaosConfig(fsync="always")
        report = ReplChaosReport(config=config)
        report.plan = build_plan(config)
        report.forced_resyncs_seen = report.plan.count("resync")
        report.final_drain_exit = 0
        report.finalise()
        assert not report.ok
        assert "replica promotion failed" in report.violations

    def test_interval_policy_does_not_enforce_acked_loss(self):
        config = ReplChaosConfig(fsync="interval")
        report = ReplChaosReport(
            config=config, acked_write_loss=1, lost_unsynced=3
        )
        report.plan = build_plan(config)
        report.promote_ok = True
        report.promoted_write_ok = True
        report.forced_resyncs_seen = report.plan.count("resync")
        report.final_drain_exit = 0
        report.finalise()
        assert report.ok
        assert "not enforced" in report.render()
