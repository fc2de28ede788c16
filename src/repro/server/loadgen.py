"""Seeded, self-verifying load generator for the serving layer.

A campaign on the harness kit (:mod:`repro.harness`) against whatever
listens at ``host:port``: each connection replays the kit's seeded op
stream for its index, every read is judged by the kit's oracle, and a
multiget sweep of every key the oracle knows ends the run.  Connections
own disjoint key spaces, so the verdict (``wrong bytes``, ``stale
reads``) is deterministic however the event loop interleaves them.

What is particular to the loadgen is the wire faults and the volatile
server's durability rule.  The ``conn.*`` sites of a :class:`FaultPlan`
are applied here, on the client side of the socket, because that is
where an operator's failures actually originate: ``conn.reset`` aborts
the connection after sending half a request; ``conn.stall`` stops
sending mid-request for the spec's ``magnitude`` seconds, long enough to
trip the server's read timeout when configured that way.  A request cut
that way never executed (the server discards partial frames), so the
oracle's state stands and verification stays exact.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_seed
from repro.faults.plan import WIRE_SITES, FaultPlan, FaultSpec
from repro.harness import (
    CampaignReport,
    Oracle,
    RequestCut,
    RoundOutcome,
    TrafficConfig,
    closing,
    drive,
    sweep,
)
from repro.server.client import Connection, MemcacheClient, RetryPolicy


#: The loadgen's op mix: read-mostly, the ordinary traffic of a volatile
#: cache (the campaigns' default is write-heavy, to load the journal).
READ_MOSTLY = {"set_fraction": 0.30, "delete_fraction": 0.02}


@dataclass
class LoadConfig(TrafficConfig):
    """The traffic, plus where to send it and how to judge it."""

    host: str = "127.0.0.1"
    port: int = 11311
    plan: Optional[FaultPlan] = None
    deadline: float = 2.0
    #: Treat a hit on a key this run never wrote as fabricated bytes.
    #: Turn off when driving a warm server (e.g. after a restart) whose
    #: prior contents legitimately overlap the generator's key space.
    verify_unwritten: bool = True

    def validate(self) -> None:
        super().validate()
        if not 0 < self.port <= 65535:
            raise ConfigurationError(f"port must be in 1..65535, got {self.port}")


@dataclass
class LoadReport(CampaignReport):
    """Outcome of one loadgen run: round 0 is the traffic, every later
    round one sweep.

    :meth:`render` prints only fields that are pure functions of (config,
    seed) — safe to byte-diff across runs; :meth:`render_metrics` prints
    the timing-dependent rest.
    """

    config: LoadConfig
    #: Wire-fault firings per site; per-connection RNG streams make these
    #: independent of event-loop interleaving.
    injected: Dict[str, int] = field(default_factory=dict)

    def tally(self, verdict: str, outcome: RoundOutcome) -> None:
        """The volatile cache's rule: eviction is legal, so an
        acknowledged write may go missing (counted per round as bounded
        loss); an older version, a deleted key or foreign bytes may
        never be served."""
        if verdict == "missing":
            self.bounded_loss(outcome)
        elif verdict == "resurrection":
            self.deleted_resurrections += 1
        elif verdict == "unwritten" and not self.config.verify_unwritten:
            return
        elif verdict != "ok":
            self.wrong_bytes += 1

    def finalise(self) -> None:
        """Turn counters into the verdict."""
        if self.wrong_bytes:
            self.violations.append(f"{self.wrong_bytes} GETs returned wrong bytes")
        if self.deleted_resurrections:
            self.violations.append(
                f"{self.deleted_resurrections} reads after delete"
            )
        self.check_sweeps()

    def traffic_lines(self, injected: str = "injected") -> List[str]:
        """The plan, the seed-derived counts and the three counters that
        are zero when the server is correct."""
        plan, issued = self.config.plan, self.rounds[0].issued
        return [
            "plan: "
            + (
                f"seed={plan.seed} sites={','.join(plan.sites) or '-'}"
                if plan is not None
                else "none"
            ),
            f"issued: gets={issued['get']} sets={issued['set']} "
            f"deletes={issued['delete']}",
            f"{injected}: "
            + " ".join(
                f"{site}={self.injected.get(site, 0)}"
                for site in sorted(WIRE_SITES)
            ),
            f"wrong_bytes: {self.wrong_bytes}",
            f"stale_reads: {self.deleted_resurrections}",
            f"crashes: {self.crashes}",
        ]

    def render(self) -> str:
        return "\n".join(
            [
                "loadgen: " + self.config.traffic(),
                *self.traffic_lines(),
                *self.verdict_lines("traffic verified, no wrong bytes"),
            ]
        )

    def render_metrics(self) -> str:
        load = self.rounds[0]
        return (
            f"hits={load.hits} misses={load.misses} "
            f"misses_after_set={load.lost_unsynced}\n" + super().render_metrics()
        )


class _WireFaultArm:
    """Per-connection deterministic firing of the ``conn.*`` sites."""

    def __init__(self, plan: Optional[FaultPlan], conn_id: int) -> None:
        self._specs: Dict[str, List[FaultSpec]] = {site: [] for site in WIRE_SITES}
        self._rngs: Dict[str, random.Random] = {}
        self.fired: Dict[str, int] = {site: 0 for site in WIRE_SITES}
        #: Requests sent so far on this lane, across reconnects.
        self.position = 0
        if plan is None:
            return
        for site in WIRE_SITES:
            self._specs[site] = plan.for_site(site)
            self._rngs[site] = random.Random(
                derive_seed(plan.seed, f"wire-{site}-conn{conn_id}")
            )

    def roll(self, site: str) -> Optional[FaultSpec]:
        for spec in self._specs[site]:
            if not spec.active_at(self.position):
                continue
            if spec.limit is not None and self.fired[site] >= spec.limit:
                continue
            if self._rngs[site].random() < spec.rate:
                self.fired[site] += 1
                return spec
        return None

    async def connect(self, host: str, port: int) -> Connection:
        """The :class:`MemcacheClient` ``connect`` seam."""
        conn = await _FaultedConnection.open(host, port)
        conn.arm = self
        return conn


class _FaultedConnection(Connection):
    """A connection whose every request passes under the lane's arm."""

    arm: _WireFaultArm

    async def send(self, request: bytes) -> None:
        arm, half = self.arm, max(1, len(request) // 2)
        reset = arm.roll("conn.reset")
        stall = arm.roll("conn.stall") if reset is None else None
        arm.position += 1
        if reset is not None:
            self.writer.write(request[:half])
            try:
                await self.writer.drain()
            except OSError:
                pass
            # Abort hard: no FIN-after-flush niceties, like a crashed peer.
            self.writer.transport.abort()
            raise RequestCut("conn.reset")
        if stall is None:
            return await super().send(request)
        await super().send(request[:half])
        await asyncio.sleep(stall.magnitude)
        try:
            await super().send(request[half:])
        except OSError as exc:
            # The server timed out our stalled read and hung up; the
            # partial command was discarded on its side.
            raise RequestCut("conn.stall") from exc


async def _no_event() -> None:
    """The loadgen's round has no event to fire."""


async def drive_traffic(report: LoadReport, oracle: Oracle) -> None:
    """Round 0: every connection's op stream, under its wire-fault arm.

    Connection *i* is one persistent single-attempt client (nothing is
    ever re-sent, so a cut request provably never ran) drawing from
    ``derive_seed(seed, "loadgen-ops-conn<i>")``.
    """
    config = report.config
    arms = [_WireFaultArm(config.plan, i) for i in range(config.connections)]
    outcome = RoundOutcome(0)
    report.rounds.append(outcome)
    await drive(
        config, oracle, "loadgen-ops-conn",
        [
            MemcacheClient(
                config.host, config.port, pool_size=1, deadline=config.deadline,
                retry=RetryPolicy(max_attempts=1), connect=arm.connect,
            )
            for arm in arms
        ],
        lambda _key: False,
        outcome, report, _no_event,
    )
    for site in WIRE_SITES:
        report.injected[site] = sum(arm.fired[site] for arm in arms)


async def verify_sweep(
    report: LoadReport, oracle: Oracle, port: int, label: str
) -> None:
    """A sweep-only round: every key the oracle has an opinion about,
    read back from ``port`` through a pooled, retrying client."""
    config = report.config
    outcome = RoundOutcome(len(report.rounds))
    report.rounds.append(outcome)
    client = MemcacheClient(
        config.host, port, pool_size=2, deadline=config.deadline
    )
    async with closing(client):
        await sweep(oracle, client.get_many, report.tally, outcome, label)


async def run_loadgen(config: LoadConfig) -> LoadReport:
    """Drive the server at ``config`` and verify every byte it returns."""
    config.validate()
    report = LoadReport(config=config)
    oracle = Oracle(config.seed)
    await drive_traffic(report, oracle)
    await verify_sweep(report, oracle, config.port, "verify")
    report.finalise()
    return report
