"""Over-the-wire chaos: faults on the serving path, verdicts per seed.

:func:`run_server_chaos` is the serving-layer sibling of
:func:`repro.faults.chaos.run_chaos`.  It stands up a real asyncio
server over a sharded zExpander with a cache-level fault plan armed
(bit-flips, codec failures), drives it with the self-verifying load
generator while the plan's wire sites (``conn.reset``, ``conn.stall``)
break connections mid-request, then walks the full operational
lifecycle: SIGTERM-style drain, crash-safe snapshot, warm restart, and
re-verification of the restored data.  A deterministic overload probe
follows, checking that shedding refuses Z-zone-destined work with
``SERVER_ERROR overloaded`` while the modeled N-zone service time stays
within 2x of unloaded.

Every line of :meth:`ServerChaosReport.render` is a pure function of
(seed, config): issued-op and wire-fault counts come from
per-connection RNG streams, the overload probe is single-connection
with a tick-driven token bucket, and everything timing-dependent is
reduced to a boolean verdict.  Two runs with the same seed render
byte-identical reports — which is exactly what the ``harness-smoke`` CI
job diffs.

The traffic and both sweeps run on the harness kit through the loadgen
(:func:`~repro.server.loadgen.drive_traffic`, ``verify_sweep``) with one
:class:`~repro.harness.Oracle` that outlives the restart, so the
restored server is judged by everything the first one acknowledged.
"""

from __future__ import annotations

import asyncio
import os
import random
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

from repro.common.errors import ServerOverloadedError
from repro.core.config import ZExpanderConfig
from repro.core.sharded import ShardedZExpander
from repro.core.snapshot import iter_cache_items
from repro.core.zexpander import ZExpander
from repro.faults.chaos import DAMAGE_MISS_FACTOR, MISS_SLACK_FRACTION
from repro.faults.plan import WIRE_SITES, FaultPlan, FaultSpec
from repro.harness import Oracle, expected_value, key_name, raw_client
from repro.server.admission import AdmissionConfig, AdmissionController, TickClock
from repro.server.loadgen import (
    READ_MOSTLY,
    LoadConfig,
    LoadReport,
    drive_traffic,
    verify_sweep,
)
from repro.server.server import TICK_SECONDS, CacheServer, ServerConfig
from repro.sim.costmodel import HIGH_PERFORMANCE_COSTS
from repro.sim.perfsim import PerformanceModel, mix_from_stats
from repro.zzone.zzone import INTEGRITY_FIELDS

#: The cache under test: small, so the traffic reaches the Z-zone.
CAPACITY = 256 * 1024
SHARDS = 2

def default_server_plan(seed: int = 0) -> FaultPlan:
    """The standard over-the-wire mix: cache faults + wire faults."""
    return FaultPlan(
        seed=seed,
        specs=(
            FaultSpec(site="block.bitflip", rate=0.001),
            FaultSpec(site="codec.decompress", rate=0.0008, mode="error"),
            FaultSpec(site="codec.compress", rate=0.0004, mode="error"),
            FaultSpec(site="conn.reset", rate=0.003, limit=4),
            FaultSpec(site="conn.stall", rate=0.0015, magnitude=0.3, limit=2),
        ),
    )


def _cache_site_plan(plan: FaultPlan) -> Optional[FaultPlan]:
    specs = tuple(spec for spec in plan.specs if spec.site not in WIRE_SITES)
    if not specs:
        return None
    return FaultPlan(seed=plan.seed, specs=specs)


@dataclass
class OverloadProbe:
    """Deterministic single-connection overload phase results."""

    shed_total: int = 0
    shed_zzone: int = 0
    overload_errors_seen: int = 0
    #: Modeled mean service time per admitted request, overloaded vs
    #: unloaded (same op stream, admission off).
    latency_ratio: float = 0.0


@dataclass
class ServerChaosReport(LoadReport):
    """Outcome of one over-the-wire chaos run: a load report (round 0
    the traffic, then one sweep before the drain and one after the
    restart) plus the lifecycle around it; ``render()`` is
    byte-deterministic per (seed, scale)."""

    drain_exit_code: int = -1
    invariant_failures: int = 0
    audits: int = 0
    resident_before: int = 0
    resident_after: int = 0
    snapshot_loaded: int = 0
    snapshot_skipped: int = 0
    probe: Optional[OverloadProbe] = None
    zzone_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def restart_ratio(self) -> float:
        if self.resident_before == 0:
            return 1.0
        return self.resident_after / self.resident_before

    def render(self) -> str:
        """Deterministic fields only — safe to byte-diff across runs."""
        config = self.config
        lines = [
            f"server-chaos: connections={config.connections} "
            f"requests_per_conn={config.requests_per_conn} "
            f"keys_per_conn={config.keys_per_conn} shards={SHARDS} "
            f"seed={config.seed}",
            *self.traffic_lines("injected(wire)"),
            f"drain_exit_code: {self.drain_exit_code}",
            f"invariant_failures: {self.invariant_failures}",
            "restart_warm: " + ("yes" if self.restart_ratio >= 0.95 else "NO"),
        ]
        if self.probe is not None:
            lines.append(
                f"overload: sheds={self.probe.shed_total} "
                f"shed_zzone={self.probe.shed_zzone} "
                f"latency_ratio={self.probe.latency_ratio:.3f}"
            )
        lines += self.verdict_lines(
            "served, shed, drained, and restarted cleanly"
        )
        return "\n".join(lines)

    def render_metrics(self) -> str:
        """Timing-dependent detail (not diffed)."""
        lines = [
            f"resident(distinct keys): drained={self.resident_before} "
            f"after_restart={self.resident_after} ({self.restart_ratio:.3f})",
            f"snapshot: loaded={self.snapshot_loaded} "
            f"skipped={self.snapshot_skipped}",
            f"audits: {self.audits}",
            super().render_metrics(),
        ]
        for name in sorted(self.zzone_counters):
            lines.append(f"  zzone.{name}: {self.zzone_counters[name]}")
        return "\n".join(lines)

    def finalise(self) -> None:
        """The load's clauses (wrong bytes, reads after delete, unverified
        sweeps), then the lifecycle's."""
        super().finalise()
        traffic = self.rounds[0]
        if self.drain_exit_code != 0:
            self.violations.append(
                f"drain exited {self.drain_exit_code}, expected 0"
            )
        if self.invariant_failures:
            self.violations.append(
                f"{self.invariant_failures} invariant failures during serving"
            )
        if self.restart_ratio < 0.95:
            self.violations.append(
                f"warm restart restored only {self.restart_ratio:.3f} "
                "of resident items (need >= 0.95)"
            )
        damage = (
            self.zzone_counters.get("quarantined_items", 0)
            + self.zzone_counters.get("evicted_items", 0)
        )
        allowed = DAMAGE_MISS_FACTOR * damage + MISS_SLACK_FRACTION * max(
            1, traffic.ops_issued
        )
        # Misses on acknowledged keys *during the traffic*; what the sweeps
        # then find missing is the same damage seen again.
        if traffic.lost_unsynced > allowed:
            self.violations.append(
                f"disproportionate degradation: {traffic.lost_unsynced} misses "
                f"on written keys for {damage} damaged/evicted items "
                f"(allowed {allowed:.0f})"
            )
        probe = self.probe
        if probe is not None:
            if probe.shed_total == 0 or probe.shed_zzone == 0:
                self.violations.append(
                    "overload probe shed nothing (expected Z-zone-first shedding)"
                )
            if probe.overload_errors_seen != probe.shed_total:
                self.violations.append(
                    f"{probe.shed_total} sheds but {probe.overload_errors_seen} "
                    "SERVER_ERROR overloaded replies seen"
                )
            if probe.latency_ratio > 2.0:
                self.violations.append(
                    f"modeled N-zone service time {probe.latency_ratio:.3f}x "
                    "unloaded (need <= 2x)"
                )


#: The Z-zone counters the report prints (and ``finalise`` weighs
#: damage by), read from the server's registry as ``cache_zzone_<name>``.
_ZZONE_REPORTED = tuple(
    name for name in INTEGRITY_FIELDS if name != "staged_checksum_failures"
) + ("evicted_items",)


def run_server_chaos(
    seed: int = 0,
    connections: int = 4,
    requests_per_conn: int = 1_500,
    keys_per_conn: int = 150,
    plan: Optional[FaultPlan] = None,
    workdir: Optional[str] = None,
) -> ServerChaosReport:
    """Run the whole over-the-wire chaos lifecycle; see the module doc."""
    load_config = LoadConfig(
        connections=connections,
        requests_per_conn=requests_per_conn,
        keys_per_conn=keys_per_conn,
        seed=seed,
        plan=plan if plan is not None else default_server_plan(seed),
        deadline=3.0,
        **READ_MOSTLY,
    )
    load_config.validate()
    return asyncio.run(_run_server_chaos(load_config, workdir))


#: Admission that never sheds: the load phase and the probe's unloaded
#: twin must see every request served.
_WIDE_OPEN = AdmissionConfig(rate=1e6, burst=1e5)


async def _run_server_chaos(
    load_config: LoadConfig,
    workdir: Optional[str],
) -> ServerChaosReport:
    seed, plan = load_config.seed, load_config.plan
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="zx-server-chaos-")
    snapshot_path = os.path.join(workdir, "chaos.snap")

    # -- phase 1: chaos traffic against a faulted server ----------------------
    cache = ShardedZExpander(
        ZExpanderConfig(
            total_capacity=CAPACITY, seed=seed, fault_plan=_cache_site_plan(plan)
        ),
        num_shards=SHARDS,
    )
    server_config = ServerConfig(
        port=0,
        read_timeout=0.12,
        snapshot_path=snapshot_path,
        audit_interval=256,
        admission=_WIDE_OPEN,
    )
    server = CacheServer(cache, server_config)
    await server.start()
    run_task = asyncio.create_task(server.run())

    load_config.port = server.port
    report = ServerChaosReport(config=load_config)
    # One oracle for the whole lifecycle: what the faulted server
    # acknowledged is what the restarted one is held to.
    oracle = Oracle(seed)
    await drive_traffic(report, oracle)
    await verify_sweep(report, oracle, server.port, "verify")
    counters = server.registry.snapshot()
    report.zzone_counters = {
        name: counters[f"cache_zzone_{name}"] for name in _ZZONE_REPORTED
    }

    # -- phase 2: drain, snapshot, warm restart --------------------------------
    server.begin_drain()
    report.drain_exit_code = await run_task
    # Counted once the server has stopped, so walking the faulted cache
    # cannot disturb the seeded fault stream the traffic and the dump saw.
    report.resident_before = sum(1 for _item in iter_cache_items(cache))
    report.invariant_failures = server.stats.invariant_failures
    if server.auditor is not None:
        report.audits = server.auditor.audits

    restart_cache = ShardedZExpander(
        ZExpanderConfig(total_capacity=CAPACITY, seed=seed), num_shards=SHARDS
    )
    restart_server = CacheServer(restart_cache, server_config)
    await restart_server.start()
    restart_task = asyncio.create_task(restart_server.run())
    report.snapshot_loaded = restart_server.stats.snapshot_loaded
    report.snapshot_skipped = restart_server.stats.snapshot_skipped
    report.resident_after = sum(1 for _item in iter_cache_items(restart_cache))

    await verify_sweep(report, oracle, restart_server.port, "restart")
    restart_server.begin_drain()
    await restart_task

    # -- phase 3: deterministic overload probe ---------------------------------
    report.probe = await _overload_probe(seed)

    report.finalise()
    return report


# -- the overload probe --------------------------------------------------------

PROBE_KEYS = 360
PROBE_HOT_KEYS = 40
PROBE_REQUESTS = 700


def _probe_keys(seed: int) -> Iterator[int]:
    """The probe's GET stream: 70 % hot head, 30 % long tail."""
    rng = random.Random(seed + 17)
    for _ in range(PROBE_REQUESTS):
        if rng.random() < 0.7:
            yield rng.randrange(PROBE_HOT_KEYS)
        else:
            yield PROBE_HOT_KEYS + rng.randrange(PROBE_KEYS - PROBE_HOT_KEYS)


async def _overload_probe(seed: int) -> OverloadProbe:
    """Single-connection, tick-clocked overload scenario.

    Populates a cache whose hot head lives in the N-zone and long tail
    in the Z-zone, replays an identical GET stream twice — once
    unloaded, once behind a starved token bucket — and compares the
    modeled service time of what was actually admitted.
    """
    probe = OverloadProbe()
    # Small N-zone so the long tail demotes to the Z-zone; promotion and
    # adaptation off so zone residency is frozen for the whole probe.
    cache = ZExpander(
        ZExpanderConfig(
            total_capacity=192 * 1024,
            nzone_fraction=0.1,
            seed=seed,
            adaptive=False,
            promotion_policy="never",
        )
    )
    server = CacheServer(
        cache, ServerConfig(port=0, read_timeout=2.0, admission=_WIDE_OPEN)
    )
    await server.start()
    run_task = asyncio.create_task(server.run())
    # One persistent connection, one attempt per request: a shed GET is
    # one ``SERVER_ERROR overloaded`` reply, never retried.
    client = raw_client(server.port)

    # Populate: long tail first, hot head last so it owns the N-zone.
    for key_id in (*range(PROBE_HOT_KEYS, PROBE_KEYS), *range(PROBE_HOT_KEYS)):
        await client.set(key_name(99, key_id), expected_value(seed, 99, key_id, 1))

    # Unloaded twin: same GET stream, admission wide open.
    baseline_before = cache.stats.snapshot()
    for key_id in _probe_keys(seed):
        await client.get(key_name(99, key_id))
    baseline_mix = mix_from_stats(cache.stats.delta(baseline_before))

    # Overloaded run: starved bucket, tick clock — 0.4 tokens/request.
    tight = AdmissionConfig(rate=40_000.0, burst=30.0)
    # The registry's admission_* views stay on the first controller;
    # the probe reads the new one's stats directly.
    server.admission = AdmissionController(tight, now=TickClock(TICK_SECONDS))
    overload_before = cache.stats.snapshot()
    for key_id in _probe_keys(seed):
        try:
            await client.get(key_name(99, key_id))
        except ServerOverloadedError:
            probe.overload_errors_seen += 1
    overload_mix = mix_from_stats(cache.stats.delta(overload_before))
    stats = server.admission.stats
    probe.shed_total = stats.shed_total
    probe.shed_zzone = stats.shed_zzone

    model = PerformanceModel(HIGH_PERFORMANCE_COSTS)
    probe.latency_ratio = model.service_time(overload_mix) / model.service_time(
        baseline_mix
    )

    await client.close()
    server.begin_drain()
    await run_task
    return probe
