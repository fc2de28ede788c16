"""Cluster chaos: seeded node kills under oracle-verified load.

Each round drives seeded traffic through a ring-routed
:class:`~repro.cluster.client.ClusterClient` (``on_node_down="error"``
so "shard unreachable" is never confused with "cache miss"), SIGKILLs a
seeded-chosen node at a seeded op count, lets the drivers finish the
round against the degraded fleet, and then checks three contracts:

* **degraded-but-correct** — while the victim is down, a ``miss``-mode
  client must answer for every key owned by a *live* node exactly as the
  oracle predicts: the outage is confined to the victim's arc of the
  ring, and no surviving node returns wrong bytes.
* **recovery** — the victim restarts on its original port and journal
  directory; a full cluster-wide sweep then judges every key the oracle
  knows.  Wrong bytes are fatal everywhere; under ``fsync=always``,
  acknowledged-write loss and delete resurrection on the recovered node
  are fatal too.
* **ring stability** — for a deterministic key sample, every node is
  probed *directly*; a key answering from two live nodes, or from any
  node other than its ring owner, is fatal.  This is the property that
  makes the kill/restart cycle safe: ownership is a pure function of
  the member list, so a bounced node resumes exactly its old arc.

:meth:`ClusterChaosReport.render` prints only pure-function-of-seed
fields plus the (deterministically zero, when the system is correct)
violation counters, so CI byte-diffs two same-seed runs; everything
timing-dependent goes to stderr via ``render_metrics``.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List

from repro.cluster.client import ClusterClient
from repro.cluster.procs import ClusterConfig, ClusterSupervisor
from repro.common.errors import ConfigurationError, ServingError
from repro.common.rng import derive_seed
from repro.harness import (
    CampaignConfig,
    CampaignReport,
    Oracle,
    RoundOutcome,
    closing,
    drive,
    event_point,
    key_name,
    sweep,
)

#: Kill point, as a fraction of the round's total op budget.
KILL_FRACTION_LO = 0.2
KILL_FRACTION_HI = 0.8

#: Keys per ring-stability probe round (capped: the probe is O(keys x nodes)).
RING_PROBE_KEYS = 48


@dataclass
class ClusterChaosConfig(CampaignConfig):
    """One node-kill campaign over an N-node cluster."""

    nodes: int = 3
    kill_points: int = 4
    deadline: float = 5.0

    def validate(self) -> None:
        if self.nodes < 2:
            raise ConfigurationError("cluster chaos needs >= 2 nodes")
        if self.kill_points < 1:
            raise ConfigurationError("kill_points must be >= 1")
        super().validate()


@dataclass
class ClusterRoundOutcome(RoundOutcome):
    """Timing-dependent per-round record (metrics only)."""

    victim: str = "-"
    ring_probed: int = 0

    def describe(self) -> str:
        return (
            f"round {self.round_index}: victim={self.victim} "
            f"kill_after={self.event_after_ops} {self.traffic()} "
            f"ring_probed={self.ring_probed}"
        )


@dataclass
class ClusterChaosReport(CampaignReport):
    """Campaign verdict; ``render()`` is byte-deterministic per config."""

    ring_violations: int = 0
    drain_exits: List[int] = field(default_factory=list)

    def finalise(self) -> None:
        self.check_bytes()
        if self.ring_violations:
            self.violations.append(
                f"{self.ring_violations} keys answered from a node other "
                "than their single ring owner"
            )
        self.check_durability()
        self.check_sweeps()
        if any(code != 0 for code in self.drain_exits):
            self.violations.append(
                f"final drain exits {self.drain_exits}, expected all 0"
            )

    def render(self) -> str:
        config = self.config
        lines = [
            f"cluster-chaos: nodes={config.nodes} "
            f"kill_points={config.kill_points} " + config.traffic(),
            f"fsync: {config.fsync}",
            f"wrong_bytes: {self.wrong_bytes}",
            f"ring_violations: {self.ring_violations}",
            *self.durability_lines(),
            "final_drain_exits: "
            + ",".join(str(code) for code in self.drain_exits),
            *self.verdict_lines(
                "every kill stayed confined to its arc; recovery and "
                "ring ownership held"
            ),
        ]
        return "\n".join(lines)


# -- the campaign ---------------------------------------------------------------


def run_cluster_chaos(**settings) -> ClusterChaosReport:
    """Run the node-kill campaign; see the module doc."""
    config = ClusterChaosConfig(**settings)
    config.validate()
    return asyncio.run(_Campaign(config).run())


class _Campaign:
    """The fleet, its address book, the oracle and the report of one run."""

    def __init__(self, config: ClusterChaosConfig) -> None:
        self.config = config
        self.report = ClusterChaosReport(config=config)
        self.oracle = Oracle(config.seed)
        self.supervisor = ClusterSupervisor(
            ClusterConfig(
                nodes=config.nodes,
                seed=config.seed,
                workdir=config.workdir or tempfile.mkdtemp(prefix="zx-cluster-"),
                # The nodes' own seed and port stand over the campaign's.
                serve=config.serve(**config.journal()),
            )
        )
        self.addresses: Dict[str, tuple] = {}

    def _client(self, on_node_down: str, **kwargs) -> ClusterClient:
        return ClusterClient(
            self.addresses,
            on_node_down=on_node_down,
            deadline=self.config.deadline,
            **kwargs,
        )

    async def run(self) -> ClusterChaosReport:
        config, report = self.config, self.report
        kill_rng = random.Random(
            derive_seed(config.seed, "cluster-kill-points")
        )
        try:
            self.addresses = await self.supervisor.start()
            for round_index in range(config.kill_points):
                victim = f"node{kill_rng.randrange(config.nodes)}"
                kill_after = event_point(
                    kill_rng, config, KILL_FRACTION_LO, KILL_FRACTION_HI
                )
                outcome = ClusterRoundOutcome(
                    round_index, kill_after, victim=victim
                )
                report.rounds.append(outcome)
                await self._kill_round(outcome)
            # Full-strength final sweep, then graceful drain of every node.
            final = ClusterRoundOutcome(config.kill_points)
            report.rounds.append(final)
            await self._judge_whole_fleet(final)
            codes = await self.supervisor.stop()
            report.drain_exits = [
                codes[f"node{i}"] for i in range(config.nodes)
            ]
        finally:
            await self.supervisor.terminate()
        report.finalise()
        return report

    async def _kill_round(self, outcome: ClusterRoundOutcome) -> None:
        config = self.config
        victim = self.supervisor.node(outcome.victim)
        # on_node_down="error": "shard unreachable" must never read as
        # "cache miss" while the oracle is judging GETs.
        client = self._client(
            "error",
            rng=random.Random(
                derive_seed(
                    config.seed, f"cluster-jitter-r{outcome.round_index}"
                )
            ),
        )

        async def kill() -> None:
            if victim.alive:
                await victim.kill()

        # No stop event: the drivers finish the round against the
        # degraded fleet.
        await drive(
            config, self.oracle, f"cluster-ops-r{outcome.round_index}-c",
            [client] * config.connections,
            lambda key: not self.supervisor.node(client.node_for(key)).alive,
            outcome, self.report, kill,
        )

        # Degraded-but-correct: the victim is still dead; every live-owned
        # key must answer exactly as the oracle predicts through a client
        # that degrades the dead arc to misses.  A miss on the dead arc is
        # the documented degradation, not a verdict about the data.
        async with closing(self._client("miss")) as degraded:
            await sweep(
                self.oracle, degraded.get_many, self.report.tally, outcome,
                "degraded",
                skip=lambda key: degraded.node_for(key) == outcome.victim,
            )

        # Restart the victim on its original port + journal dir, then judge
        # the whole keyspace and the ring-ownership invariant.
        await victim.start()
        await self._judge_whole_fleet(outcome)

    async def _judge_whole_fleet(self, outcome: ClusterRoundOutcome) -> None:
        """Every node up: sweep every oracle key, then probe ownership."""
        async with closing(self._client("error")) as client:
            await sweep(
                self.oracle, client.get_many, self.report.tally, outcome,
                "recovery",
            )
            await self._ring_probe(client, outcome)

    async def _ring_probe(
        self, client: ClusterClient, outcome: ClusterRoundOutcome
    ) -> None:
        """Assert single ownership: no key answers from two live nodes.

        Probes every node *directly* (bypassing the ring) for a
        deterministic sample of keys; any value returned by a node other
        than the key's ring owner — or by more than one node — is a ring
        violation.
        """
        sample = itertools.islice(
            (
                key_name(lane, key_id)
                for lane, key_ids in self.oracle.lanes()
                for key_id in key_ids
            ),
            RING_PROBE_KEYS,
        )
        for key in sample:
            owner = client.node_for(key)
            answered = []
            for node in self.supervisor.nodes:
                if not node.alive:
                    continue
                try:
                    value = await client.client_for(node.node_id).get(key)
                except ServingError:
                    continue
                if value is not None:
                    answered.append(node.node_id)
            outcome.ring_probed += 1
            extras = [node_id for node_id in answered if node_id != owner]
            if extras or len(answered) > 1:
                self.report.ring_violations += 1
