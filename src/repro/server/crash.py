"""Kill-anywhere crash harness: SIGKILL under load, recover, verify.

The durability layer's contract is only as good as the worst place a
process can die, so this harness does not pick nice places: it starts a
real ``cli serve`` child with a journal directory, drives it with
self-verifying traffic (the kit's oracle: every value is a pure
function of ``(seed, conn, key, version)``), and SIGKILLs the child at a
seeded random point — mid-append, mid-fsync, mid-checkpoint, mid-prune,
wherever the dice land.  Then it restarts the child on the same
directory and checks every key the oracle knows about:

* **no wrong bytes, ever** — a returned value must be *some* version the
  oracle acknowledged (or attempted, for in-flight writes); fabricated
  or cross-key bytes fail the run under every fsync policy.
* **zero acknowledged-write loss under ``fsync=always``** — a SET that
  was answered ``STORED`` before the kill must come back byte-exact; a
  DELETE answered before the kill must stay dead (no resurrection).
* under ``interval``/``never`` the same sweep runs but missing or stale
  acknowledged writes are *counted as bounded loss*, not violations —
  that is the policy's documented trade.

Rounds chain on one journal directory, so recovery is exercised
repeatedly on top of its own output (crash during recovery-created
state, checkpoints of replayed data, and so on).  The final round ends
with a graceful SIGTERM drain that must exit 0.

:meth:`CrashReport.render` prints only pure-function-of-seed fields plus
the (deterministically zero, when the system is correct) violation
counters, so CI can byte-diff two runs; everything timing-dependent goes
to :meth:`CrashReport.render_metrics`.
"""

from __future__ import annotations

import asyncio
import os
import random
import tempfile
from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_seed
from repro.harness import (
    HOST,
    CampaignConfig,
    CampaignReport,
    Oracle,
    RoundOutcome,
    ServeChild,
    closing,
    drive,
    event_point,
    raw_client,
    sweep,
)
from repro.server.client import MemcacheClient

#: Kill point, as a fraction of the round's total op budget.
KILL_FRACTION_LO = 0.15
KILL_FRACTION_HI = 0.95


@dataclass
class CrashConfig(CampaignConfig):
    """One kill-anywhere campaign."""

    kill_points: int = 20

    def validate(self) -> None:
        if self.kill_points < 1:
            raise ConfigurationError("kill_points must be >= 1")
        super().validate()


@dataclass
class CrashReport(CampaignReport):
    """Campaign verdict; ``render()`` is byte-deterministic per config."""

    final_drain_exit: int = -1

    def finalise(self) -> None:
        self.check_bytes()
        self.check_durability()
        self.check_sweeps()
        self.check_drain(self.final_drain_exit)

    def render(self) -> str:
        config = self.config
        lines = [
            f"crash-chaos: kill_points={config.kill_points} "
            + config.traffic(),
            f"fsync: {config.fsync}",
            f"wrong_bytes: {self.wrong_bytes}",
            *self.durability_lines(),
            f"final_drain_exit: {self.final_drain_exit}",
            *self.verdict_lines(
                "survived every kill with intact bytes and bounded loss"
            ),
        ]
        return "\n".join(lines)


def run_crash_chaos(**settings) -> CrashReport:
    """Run the kill-anywhere campaign; see the module doc."""
    config = CrashConfig(**settings)
    config.validate()
    return asyncio.run(_run_crash_chaos(config))


async def _run_crash_chaos(config: CrashConfig) -> CrashReport:
    report = CrashReport(config=config)
    workdir = config.workdir or tempfile.mkdtemp(prefix="zx-crash-")
    journal_dir = os.path.join(workdir, "journal")
    oracle = Oracle(config.seed)
    kill_rng = random.Random(derive_seed(config.seed, "crash-kill-points"))

    # One child object, restarted every round on the one journal dir.
    child = ServeChild(
        config.serve(
            journal_dir=journal_dir, **config.journal(), scrub_interval=1.0
        )
    )

    async def recover(outcome: RoundOutcome) -> RoundOutcome:
        """Restart the child and judge everything it recovered."""
        report.rounds.append(outcome)
        await child.start()
        client = MemcacheClient(HOST, child.port, pool_size=2, deadline=5.0)
        async with closing(client):
            await sweep(
                oracle, client.get_many, report.tally, outcome, "recovery"
            )
        return outcome

    try:
        for round_index in range(config.kill_points):
            kill_after = event_point(
                kill_rng, config, KILL_FRACTION_LO, KILL_FRACTION_HI
            )
            outcome = await recover(RoundOutcome(round_index, kill_after))
            stop = asyncio.Event()

            async def kill() -> None:
                await child.kill()  # SIGKILL — the whole point.
                stop.set()

            await drive(
                config, oracle, f"crash-ops-r{round_index}-c",
                [raw_client(child.port) for _ in range(config.connections)],
                lambda _key: not child.alive,
                outcome, report, kill, stop,
            )

        # Final round: recover once more, verify everything, drain gracefully.
        await recover(RoundOutcome(config.kill_points))
        report.final_drain_exit = await child.drain()
        report.incidents = child.incidents()
    finally:
        if child.alive:
            await child.kill()

    report.finalise()
    return report
