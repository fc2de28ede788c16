"""End-to-end chaos replay: survival, detection, and determinism."""

from repro.experiments.cli import main as cli_main
from repro.faults import FaultPlan, FaultSpec
from repro.faults.chaos import run_chaos

# Small but busy: high enough rates that every counter the contract
# checks is exercised within a few thousand requests.
_KEYS = 600
_REQUESTS = 6_000
_PLAN = FaultPlan(
    seed=11,
    specs=(
        FaultSpec(site="block.bitflip", rate=0.01),
        FaultSpec(site="codec.decompress", rate=0.005, mode="error"),
        FaultSpec(site="codec.compress", rate=0.002, mode="garbage"),
        FaultSpec(site="capacity.squeeze", rate=0.001, magnitude=0.5, duration=200),
        FaultSpec(site="clock.skew", rate=0.002, magnitude=20.0),
    ),
)


def _run(**overrides):
    kwargs = dict(
        workload="ETC",
        num_keys=_KEYS,
        num_requests=_REQUESTS,
        seed=11,
        plan=_PLAN,
        audit_interval=256,
    )
    kwargs.update(overrides)
    return run_chaos(**kwargs)


class TestChaosContract:
    def test_survives_and_detects(self):
        report = _run()
        assert report.ok, report.violations
        assert report.injected["block.bitflip"] > 0
        assert report.zzone_counters["checksum_failures"] > 0
        assert report.zzone_counters["quarantined_blocks"] > 0
        assert report.audits > 0

    def test_default_write_path_quarantines_staged_bytes(self):
        # What `cli chaos` and CI's chaos-smoke replay: the served
        # default's append region, whose staged-CRC check the paper's
        # reconstruct-on-every-put (region 0) never reaches.
        assert _run().zzone_counters["staged_checksum_failures"] > 0
        paper = _run(append_region_bytes=0)
        assert paper.ok, paper.violations
        assert paper.zzone_counters["staged_checksum_failures"] == 0
        assert paper.zzone_counters["checksum_failures"] > 0

    def test_rerun_is_byte_identical(self):
        assert _run().render() == _run().render()

    def test_different_seed_different_faults(self):
        # The trace stays pinned; only the fault streams move.
        other = FaultPlan(seed=12, specs=_PLAN.specs)
        assert _run().render() != _run(plan=other).render()


class TestChaosCli:
    def test_cli_chaos_exits_zero(self, capsys):
        rc = cli_main(
            [
                "chaos",
                "--keys", str(_KEYS),
                "--requests", str(_REQUESTS),
                "--seed", "11",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK: survived all injected faults" in out

    def test_cli_chaos_with_plan_file(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        _PLAN.dump(str(path))
        rc = cli_main(
            [
                "chaos",
                "--keys", str(_KEYS),
                "--requests", str(_REQUESTS),
                "--seed", "11",
                "--plan", str(path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "block.bitflip" in out
