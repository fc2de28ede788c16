"""Partition/lag replication harness: break the link, kill the primary.

The replication subsystem's contract has three legs, and this harness
attacks each one with a real primary/replica pair of ``cli serve``
children joined through an in-harness TCP chaos proxy:

* **no wrong bytes, ever** — any value served by either node must be
  *some* version the oracle attempted; fabricated or cross-key
  bytes are fatal regardless of link state.
* **no stale reads beyond the advertised bound** — after the link has
  been dead or silent past ``stale_grace``, a replica must refuse reads
  (``SERVER_ERROR lagging``); and once it advertises convergence
  (connected, lag 0 bytes), every key must match the oracle exactly.
  A served-but-stale read in either situation is fatal under
  ``fsync=always``.
* **no acknowledged-write loss across promotion** — after the primary
  is SIGKILLed and the replica is promoted with the dead primary's
  journal as catch-up, every write acked before the kill must be
  byte-exact on the new primary (``fsync=always``).

The campaign plan is a pure function of the seed: a shuffled mix of
link events (``partition``: refuse the link; ``stall``: hold bytes
without closing; ``reset``: abort connections once; ``resync``:
partition, then push enough journal past the primary's checkpoint
trigger that the replica's position is pruned and reconnection forces a
snapshot resync), followed by ``kill_restart`` (SIGKILL the primary
mid-load, restart on the same journal, replica re-converges) and
``kill_promote`` (SIGKILL the primary, promote the replica, prove it
takes writes, drain it gracefully).

:meth:`ReplChaosReport.render` prints only seed-derived fields and the
(zero, when correct) violation counters so CI can byte-diff two runs;
everything timing-dependent goes to ``render_metrics``.
"""

from __future__ import annotations

import asyncio
import os
import random
import tempfile
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.common.errors import ConfigurationError, ReplicaLaggingError
from repro.common.rng import derive_seed
from repro.harness import (
    FABRICATED,
    HOST,
    OP_FAILURES,
    UNKNOWN,
    CampaignConfig,
    CampaignReport,
    Oracle,
    RoundOutcome,
    ServeChild,
    closing,
    drive,
    event_point,
    hot_key,
    key_name,
    raw_client,
    sweep,
)
from repro.server.client import MemcacheClient

#: The four seeded link events; the plan covers each at least once.
LINK_KINDS = ("partition", "stall", "reset", "resync")

#: Link event lands inside this fraction of the round's op budget, so
#: there is traffic both before (material to lag on) and after (catch-up
#: under load).
EVENT_FRACTION_LO = 0.2
EVENT_FRACTION_HI = 0.6


@dataclass
class ReplChaosConfig(CampaignConfig):
    """One partition/lag campaign over a primary/replica pair."""

    #: Link-chaos rounds; two kill rounds (restart, promote) follow.
    link_points: int = 10
    #: Small so rotations/checkpoints/prunes happen *during* rounds —
    #: the resync event depends on pruning the replica's position.
    segment_bytes: int = 8 * 1024
    checkpoint_bytes: int = 24 * 1024
    #: Replica staleness advertisement under test (kept short so the
    #: partition probe does not dominate wall time).
    stale_grace: float = 0.4

    def validate(self) -> None:
        if self.link_points < 1:
            raise ConfigurationError("link_points must be >= 1")
        super().validate()
        if self.stale_grace <= 0:
            raise ConfigurationError("stale_grace must be positive")


@dataclass
class ReplRoundOutcome(RoundOutcome):
    """Timing-dependent per-round record (metrics only)."""

    kind: str = ""
    replica_reads: int = 0
    replica_sheds: int = 0
    probe_refused: bool = False
    converged: bool = False

    def describe(self) -> str:
        return (
            f"round {self.round_index} ({self.kind}): "
            f"event_after={self.event_after_ops} {self.traffic()} "
            f"replica_reads={self.replica_reads} sheds={self.replica_sheds} "
            f"probe_refused={self.probe_refused} converged={self.converged}"
        )


@dataclass
class ReplChaosReport(CampaignReport):
    """Campaign verdict; ``render()`` is byte-deterministic per config."""

    plan: List[str] = field(default_factory=list)
    #: Stale serves: a probe answered while the link was provably dead
    #: past the grace, or a post-convergence mismatch (fsync=always).
    stale_reads: int = 0
    forced_resyncs_seen: int = 0
    promote_ok: bool = False
    promoted_write_ok: bool = False
    final_drain_exit: int = -1

    def tally_stale(self, verdict: str, outcome: RoundOutcome) -> None:
        """The converged-replica rule: any deviation from the oracle
        while advertising lag 0 is a stale serve."""
        if verdict in FABRICATED:
            self.wrong_bytes += 1
        elif verdict == "ok":
            return
        elif self.enforced:
            self.stale_reads += 1
        else:
            self.bounded_loss(outcome)

    def finalise(self) -> None:
        self.check_bytes()
        if self.stale_reads:
            self.violations.append(
                f"{self.stale_reads} reads served stale beyond the "
                "advertised lag bound"
            )
        self.check_durability()
        self.check_sweeps()
        planned = self.plan.count("resync")
        if self.forced_resyncs_seen < planned:
            self.violations.append(
                f"only {self.forced_resyncs_seen}/{planned} resync rounds "
                "actually forced a snapshot resync"
            )
        if not self.promote_ok:
            self.violations.append("replica promotion failed")
        if self.promote_ok and not self.promoted_write_ok:
            self.violations.append("promoted primary refused writes")
        self.check_drain(self.final_drain_exit)

    def render(self) -> str:
        config = self.config
        lines = [
            f"replication-chaos: link_points={config.link_points} "
            + config.traffic(),
            f"fsync: {config.fsync}  stale_grace: {config.stale_grace}",
            f"plan: {' '.join(self.plan)}",
            f"wrong_bytes: {self.wrong_bytes}",
            f"stale_reads: {self.if_enforced(self.stale_reads)}",
            *self.durability_lines(),
            f"forced_resyncs: {self.forced_resyncs_seen}/"
            f"{self.plan.count('resync')}",
            "promotion: "
            + ("ok" if self.promote_ok else "FAILED")
            + ", writes "
            + ("ok" if self.promoted_write_ok else "FAILED"),
            f"final_drain_exit: {self.final_drain_exit}",
            *self.verdict_lines(
                "no wrong bytes, no stale serves beyond the bound, "
                "no acked loss across promotion"
            ),
        ]
        return "\n".join(lines)


def build_plan(config: ReplChaosConfig) -> List[str]:
    """Seed-derived campaign plan: every link kind, then the kills."""
    plan = list(LINK_KINDS[: min(config.link_points, len(LINK_KINDS))])
    rng = random.Random(derive_seed(config.seed, "repl-plan"))
    while len(plan) < config.link_points:
        plan.append(LINK_KINDS[rng.randrange(len(LINK_KINDS))])
    rng.shuffle(plan)
    plan.append("kill_restart")
    plan.append("kill_promote")
    return plan


# -- the chaos proxy ------------------------------------------------------------


class _LinkProxy:
    """A TCP middlebox on the replication link the harness can abuse.

    The replica dials the proxy; the proxy dials the primary's
    replication port (retargetable across primary restarts).  Modes:
    ``forward`` (transparent), ``partition`` (abort existing
    connections, refuse new ones), ``stall`` (hold bytes in both
    directions without closing — the silent-link case the replica's
    ``stale_grace`` exists for).  ``reset()`` is a one-shot abort with
    forwarding restored immediately.
    """

    def __init__(self) -> None:
        self.target: Optional[Tuple[str, int]] = None
        self.mode = "forward"
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Set[asyncio.StreamWriter] = set()

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._abort_all()

    def partition(self) -> None:
        self.mode = "partition"
        self._abort_all()

    def stall(self) -> None:
        self.mode = "stall"

    def reset(self) -> None:
        self._abort_all()

    def heal(self) -> None:
        self.mode = "forward"

    def _abort_all(self) -> None:
        for writer in list(self._writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self.mode == "partition" or self.target is None:
            writer.close()
            return
        try:
            up_reader, up_writer = await asyncio.open_connection(*self.target)
        except OSError:
            writer.close()
            return
        self._writers.add(writer)
        self._writers.add(up_writer)
        try:
            await asyncio.gather(
                self._pump(reader, up_writer),
                self._pump(up_reader, writer),
                return_exceptions=True,
            )
        finally:
            self._writers.discard(writer)
            self._writers.discard(up_writer)
            for end in (writer, up_writer):
                try:
                    end.close()
                except (OSError, RuntimeError):
                    # Already reset by the peer, or its event loop is gone.
                    pass

    async def _pump(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                while self.mode == "stall":
                    await asyncio.sleep(0.02)
                writer.write(data)
                await writer.drain()
        except (ConnectionError, OSError):
            return


# -- replica-side observation ---------------------------------------------------

#: Seconds a healed pair gets to advertise convergence.
CONVERGE_TIMEOUT = 30.0


def _pooled(port: int, pool_size: int = 1, deadline: float = 5.0):
    return closing(MemcacheClient(HOST, port, pool_size, deadline))


async def _fetch_stats(port: int) -> Optional[dict]:
    async with _pooled(port) as client:
        try:
            return await client.stats()
        except OP_FAILURES:
            return None


async def _await_convergence(port: int, primary_port: int) -> bool:
    """Poll both sides until the replica is connected with zero lag.

    The replica's own lag estimate comes from heartbeats, so right after
    a write burst it can briefly advertise 0 while the primary's journal
    holds records its sender has not read yet (it looks at the file once
    per flush tick).  The primary's per-session lag counts those on-disk
    bytes and only reaches zero once the replica has ACKed everything,
    so convergence requires both views to agree.
    """
    loop = asyncio.get_running_loop()
    deadline = loop.time() + CONVERGE_TIMEOUT
    while loop.time() < deadline:
        stats = await _fetch_stats(port)
        primary_stats = await _fetch_stats(primary_port)
        if (
            stats is not None
            and stats.get("replication_connected") == "1"
            and stats.get("replication_lag_bytes") == "0"
            and stats.get("replication_pressure") == "0"
            and primary_stats is not None
            and primary_stats.get("replication_replicas_connected") == "1"
            and primary_stats.get("replication_max_replica_lag_bytes") == "0"
        ):
            return True
        await asyncio.sleep(0.05)
    return False


# -- the campaign ---------------------------------------------------------------


def run_replication_chaos(**settings) -> ReplChaosReport:
    """Run the partition/lag/promotion campaign; see the module doc."""
    config = ReplChaosConfig(**settings)
    config.validate()
    return asyncio.run(_Campaign(config).run())


class _Campaign:
    """The pair under test, the proxy between them, the oracle, the report."""

    def __init__(self, config: ReplChaosConfig) -> None:
        self.config = config
        self.report = ReplChaosReport(config=config, plan=build_plan(config))
        self.oracle = Oracle(config.seed)
        workdir = config.workdir or tempfile.mkdtemp(prefix="zx-repl-")
        self.journal_dir = os.path.join(workdir, "primary-journal")
        self.proxy = _LinkProxy()
        # Restarted in place by kill_restart: same journal, new ports.
        self.primary = ServeChild(
            config.serve(
                journal_dir=self.journal_dir, **config.journal(),
                scrub_interval=5.0, repl_port=0,
            )
        )
        self.replica: Optional[ServeChild] = None

    async def _start_primary(self) -> bool:
        """(Re)start the primary and point the proxy at its stream."""
        await self.primary.start()
        if self.primary.repl_port is None:
            return False
        self.proxy.target = (HOST, self.primary.repl_port)
        return True

    async def run(self) -> ReplChaosReport:
        config, report = self.config, self.report
        event_rng = random.Random(derive_seed(config.seed, "repl-event-points"))
        await self.proxy.start()
        try:
            if not await self._start_primary():
                raise RuntimeError(
                    "primary never announced its replication port: "
                    + self.primary.text()
                )
            self.replica = ServeChild(
                config.serve(
                    role="replica",
                    primary_port=self.proxy.port,
                    stale_grace=config.stale_grace,
                    # Well past any stall the plan injects, well under the
                    # convergence deadline: a half-open link (SIGKILLed
                    # primary behind the proxy) must be cut and re-dialed
                    # quickly.
                    repl_silence_timeout=2.0,
                )
            )
            await self.replica.start()
            # Version 1 of every key, so probes and sweeps have material.
            async with _pooled(self.primary.port, pool_size=2) as client:
                for lane in range(config.connections):
                    for key_id in range(config.keys_per_conn):
                        await self._write_next(client, lane, key_id)
            for round_index, kind in enumerate(report.plan):
                outcome = ReplRoundOutcome(
                    round_index,
                    event_point(
                        event_rng, config, EVENT_FRACTION_LO, EVENT_FRACTION_HI
                    ),
                    kind=kind,
                )
                report.rounds.append(outcome)
                if kind in LINK_KINDS:
                    await self._link_round(outcome)
                elif kind == "kill_restart":
                    await self._kill_restart_round(outcome)
                else:  # kill_promote — always the last round
                    await self._kill_promote_round(outcome)
            report.incidents = (
                self.primary.incidents() + self.replica.incidents()
            )
        finally:
            for child in (self.primary, self.replica):
                if child is not None and child.alive:
                    await child.kill()
            await self.proxy.close()
        report.finalise()
        return report

    # -- traffic ---------------------------------------------------------------

    async def _write_next(
        self, client: MemcacheClient, lane: int, key_id: int
    ) -> Tuple[bytes, bool]:
        """SET the key's next version and book the outcome; returns
        ``(bytes sent, acknowledged)``."""
        version, value = self.oracle.attempt(lane, key_id)
        try:
            stored = await client.set(key_name(lane, key_id), value)
        except OP_FAILURES:
            stored = False
        self.oracle.state[(lane, key_id)] = version if stored else UNKNOWN
        return value, stored

    async def _drive_load(self, outcome: ReplRoundOutcome, on_event) -> None:
        """One round of writes-to-primary + reads-from-replica; fire
        ``on_event`` once ``event_after_ops`` ops have been issued."""
        config, primary = self.config, self.primary
        stop = asyncio.Event()
        reader = asyncio.create_task(self._replica_reader(outcome, stop))
        try:
            # Drivers run their full budget: catch-up under load is the
            # point of the link rounds.  The stream label predates the
            # kit (the crash campaign's driver was borrowed); renaming it
            # would change every seed's traffic.
            await drive(
                config, self.oracle, f"crash-ops-r{outcome.round_index}-c",
                [raw_client(primary.port) for _ in range(config.connections)],
                lambda _key: not primary.alive,
                outcome, self.report, on_event,
            )
        finally:
            stop.set()
            self.report.book_crashes(
                await asyncio.gather(reader, return_exceptions=True)
            )

    async def _replica_reader(
        self, outcome: ReplRoundOutcome, stop: asyncio.Event
    ) -> None:
        """Background GET stream against the replica while the link churns.

        Mid-stream, lag makes old-version hits and misses legitimate, so
        only fabricated bytes are judged here; staleness has its own probes.
        """
        config = self.config
        rng = random.Random(
            derive_seed(config.seed, f"repl-read-r{outcome.round_index}")
        )
        async with closing(raw_client(self.replica.port)) as client:
            while not stop.is_set():
                lane = rng.randrange(config.connections)
                key_id = hot_key(rng, config.keys_per_conn)
                try:
                    value = await client.get(key_name(lane, key_id))
                except ReplicaLaggingError:
                    outcome.replica_reads += 1
                    outcome.replica_sheds += 1
                except OP_FAILURES:
                    await asyncio.sleep(0.01)
                    continue
                else:
                    outcome.replica_reads += 1
                    if (
                        value is not None
                        and self.oracle.judge(lane, key_id, value) in FABRICATED
                    ):
                        self.report.wrong_bytes += 1
                await asyncio.sleep(0.002)

    async def _stale_probe(self, outcome: ReplRoundOutcome) -> None:
        """With the link dead/silent past the grace, a read MUST be refused."""
        await asyncio.sleep(self.config.stale_grace * 1.5 + 0.1)
        async with closing(raw_client(self.replica.port)) as client:
            try:
                await client.get(key_name(0, 0))
            except ReplicaLaggingError:
                outcome.probe_refused = True
            except OP_FAILURES:
                pass  # unreachable or erroring = not serving stale
            else:
                # Hit or miss, the replica answered while provably cut off
                # past its advertised grace: a staleness-bound violation
                # either way.
                self.report.stale_reads += 1

    async def _pump_past_checkpoint(self) -> None:
        """Write enough journal that the primary prunes the replica's position.

        Runs while the link is partitioned.  Uses a reserved oracle lane
        (``config.connections``) so the concurrent per-connection
        drivers' version sequences are untouched; the converged-replica
        sweep covers this lane too, proving the snapshot resync carried it.
        """
        config = self.config
        target = 3 * config.checkpoint_bytes + 4 * config.segment_bytes
        written = 0
        key_id = 0
        async with _pooled(self.primary.port) as client:
            while written < target:
                # Budgeted by bytes attempted, acked or not, so a refusing
                # primary cannot spin this loop forever.
                value, _stored = await self._write_next(
                    client, config.connections, key_id
                )
                written += len(value) + 64
                key_id = (key_id + 1) % config.keys_per_conn

    async def _sweep(self, child: ServeChild, outcome, tally, label) -> None:
        """Judge every oracle key (all lanes, filler included) on ``child``."""
        async with _pooled(child.port, pool_size=2) as client:
            await sweep(self.oracle, client.get_many, tally, outcome, label)

    async def _converge(self, outcome: ReplRoundOutcome, failure: str) -> bool:
        outcome.converged = await _await_convergence(
            self.replica.port, self.primary.port
        )
        if not outcome.converged:
            self.report.violations.append(failure)
        return outcome.converged

    # -- the three kinds of round ----------------------------------------------

    async def _link_round(self, outcome: ReplRoundOutcome) -> None:
        proxy, replica = self.proxy, self.replica

        async def snapshots_applied() -> int:
            stats = await _fetch_stats(replica.port) or {}
            return int(stats.get("replication_snapshots_applied", 0))

        snaps_before = 0
        if outcome.kind == "resync":
            snaps_before = await snapshots_applied()

        async def on_event() -> None:
            if outcome.kind == "reset":
                proxy.reset()
                return
            if outcome.kind == "stall":
                proxy.stall()
            else:
                proxy.partition()
            if outcome.kind == "resync":
                await self._pump_past_checkpoint()
            else:
                await self._stale_probe(outcome)
            proxy.heal()

        await self._drive_load(outcome, on_event)
        if not await self._converge(
            outcome,
            f"round {outcome.round_index} ({outcome.kind}): replica never "
            "converged after the link healed",
        ):
            return
        if outcome.kind == "resync" and await snapshots_applied() > snaps_before:
            self.report.forced_resyncs_seen += 1
        await self._sweep(
            replica, outcome, self.report.tally_stale, "replica-converged"
        )

    async def _kill_restart_round(self, outcome: ReplRoundOutcome) -> None:
        await self._drive_load(outcome, self.primary.kill)
        if not await self._start_primary():
            self.report.violations.append(
                "restarted primary never announced its replication port"
            )
            return
        if not await self._converge(
            outcome, "replica never re-converged after the primary restart"
        ):
            return
        await self._sweep(
            self.primary, outcome, self.report.tally, "primary-recovered"
        )
        await self._sweep(
            self.replica, outcome, self.report.tally_stale, "replica-converged"
        )

    async def _kill_promote_round(self, outcome: ReplRoundOutcome) -> None:
        config, report, replica = self.config, self.report, self.replica
        await self._drive_load(outcome, self.primary.kill)
        async with _pooled(replica.port, deadline=30.0) as client:
            try:
                await client.promote(self.journal_dir)
                report.promote_ok = True
            except OP_FAILURES as exc:
                report.violations.append(
                    f"promote failed: {type(exc).__name__}: {exc}"
                )
                return
        # The promoted primary must hold every write the dead one acked.
        await self._sweep(replica, outcome, report.tally, "promoted")
        # ... and take new writes, byte-verified right back.
        report.promoted_write_ok = True
        async with _pooled(replica.port) as client:
            for lane in range(config.connections):
                value, stored = await self._write_next(client, lane, 0)
                try:
                    read_back = await client.get(key_name(lane, 0))
                except OP_FAILURES:
                    read_back = None
                if not stored or read_back != value:
                    report.promoted_write_ok = False
        report.final_drain_exit = await replica.drain()
