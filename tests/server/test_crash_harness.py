"""The kill-anywhere crash harness, at test scale (real SIGKILLs)."""

from repro.server.crash import CrashConfig, CrashReport, run_crash_chaos


class TestCrashChaos:
    def test_two_kill_points_fsync_always(self, tmp_path):
        report = run_crash_chaos(
            seed=17,
            kill_points=2,
            connections=2,
            requests_per_conn=120,
            keys_per_conn=60,
            fsync="always",
            workdir=str(tmp_path),
        )
        assert report.ok, report.violations
        assert report.wrong_bytes == 0
        assert report.acked_write_loss == 0
        assert report.deleted_resurrections == 0
        assert report.final_drain_exit == 0
        # 2 kill rounds + the final verify round.
        assert len(report.rounds) == 3
        assert report.rounds[0].ops_issued > 0
        assert report.rounds[-1].verified_keys > 0
        # The seeded verdict, byte for byte.
        assert report.render() == (
            "crash-chaos: kill_points=2 connections=2 requests_per_conn=120 "
            "keys_per_conn=60 seed=17\n"
            "fsync: always\n"
            "wrong_bytes: 0\n"
            "acked_write_loss: 0\n"
            "deleted_resurrections: 0\n"
            "final_drain_exit: 0\n"
            "OK: survived every kill with intact bytes and bounded loss"
        )

    def test_interval_policy_never_fabricates(self, tmp_path):
        report = run_crash_chaos(
            seed=4,
            kill_points=2,
            connections=2,
            requests_per_conn=120,
            keys_per_conn=60,
            fsync="interval",
            workdir=str(tmp_path),
        )
        assert report.ok, report.violations
        assert report.wrong_bytes == 0
        assert report.render() == (
            "crash-chaos: kill_points=2 connections=2 requests_per_conn=120 "
            "keys_per_conn=60 seed=4\n"
            "fsync: interval\n"
            "wrong_bytes: 0\n"
            "acked_write_loss: not enforced (fsync=interval)\n"
            "deleted_resurrections: not enforced (fsync=interval)\n"
            "final_drain_exit: 0\n"
            "OK: survived every kill with intact bytes and bounded loss"
        )

    def test_render_is_deterministic_and_verdict_only(self):
        config = CrashConfig(seed=9, kill_points=5, fsync="always")
        report = CrashReport(config=config, final_drain_exit=0)
        report.finalise()
        text = report.render()
        assert "seed=9" in text
        assert "wrong_bytes: 0" in text
        assert text.endswith(
            "OK: survived every kill with intact bytes and bounded loss"
        )
        # Timing-dependent info (per-round ops) stays out of render().
        assert "issued" not in text

    def test_violations_fail_the_report(self):
        config = CrashConfig(fsync="always")
        report = CrashReport(
            config=config, acked_write_loss=2, final_drain_exit=0
        )
        report.finalise()
        assert not report.ok
        assert "FAIL" in report.render()

    def test_nonzero_drain_exit_is_a_violation(self):
        report = CrashReport(config=CrashConfig(), final_drain_exit=1)
        report.finalise()
        assert not report.ok

    def test_interval_policy_does_not_enforce_acked_loss(self):
        config = CrashConfig(fsync="interval")
        report = CrashReport(
            config=config, acked_write_loss=0, lost_unsynced=3,
            final_drain_exit=0,
        )
        report.finalise()
        assert report.ok
        assert "not enforced" in report.render()
