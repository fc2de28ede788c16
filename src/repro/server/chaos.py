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
byte-identical reports — which is exactly what the ``server-smoke`` CI
job diffs.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.core.config import ZExpanderConfig
from repro.core.sharded import ShardedZExpander
from repro.core.zexpander import ZExpander
from repro.faults.plan import WIRE_SITES, FaultPlan, FaultSpec
from repro.server.admission import AdmissionConfig, AdmissionController, TickClock
from repro.server.client import _Connection
from repro.server.loadgen import (
    LoadConfig,
    LoadReport,
    _ConnectionDriver,
    _verify_sweep,
    expected_value,
    key_name,
)
from repro.server.protocol import CRLF
from repro.server.server import TICK_SECONDS, CacheServer, ServerConfig
from repro.sim.costmodel import HIGH_PERFORMANCE_COSTS
from repro.sim.perfsim import PerformanceModel, mix_from_stats
from repro.zzone.zzone import INTEGRITY_FIELDS

#: Degradation bound, matching the library chaos driver's contract: a
#: damaged/evicted item may cost this many extra misses ...
DAMAGE_MISS_FACTOR = 4
#: ... plus this fraction of issued requests as absolute slack.
MISS_SLACK_FRACTION = 0.02


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

    requests: int = 0
    admitted: int = 0
    shed_total: int = 0
    shed_zzone: int = 0
    overload_errors_seen: int = 0
    max_inflight: int = 0
    inflight_hard: int = 0
    #: Modeled mean service time per admitted request, overloaded vs
    #: unloaded (same op stream, admission off).
    latency_ratio: float = 0.0


@dataclass
class ServerChaosReport:
    """Outcome of one over-the-wire chaos run; ``render()`` is
    byte-deterministic per (seed, scale)."""

    seed: int
    connections: int
    requests_per_conn: int
    keys_per_conn: int
    shards: int
    plan: FaultPlan
    load: Optional[LoadReport] = None
    drain_exit_code: int = -1
    invariant_failures: int = 0
    audits: int = 0
    resident_before: int = 0
    resident_after: int = 0
    restart_wrong_bytes: int = 0
    restart_resident: int = 0
    restart_expected: int = 0
    snapshot_loaded: int = 0
    snapshot_skipped: int = 0
    probe: Optional[OverloadProbe] = None
    zzone_counters: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def restart_ratio(self) -> float:
        if self.resident_before == 0:
            return 1.0
        return self.resident_after / self.resident_before

    def render(self) -> str:
        """Deterministic fields only — safe to byte-diff across runs."""
        lines = [
            f"server-chaos: connections={self.connections} "
            f"requests_per_conn={self.requests_per_conn} "
            f"keys_per_conn={self.keys_per_conn} shards={self.shards} "
            f"seed={self.seed}",
            f"plan: seed={self.plan.seed} sites={','.join(self.plan.sites) or '-'}",
        ]
        if self.load is not None:
            lines.append(
                f"issued: gets={self.load.issued_gets} "
                f"sets={self.load.issued_sets} deletes={self.load.issued_deletes}"
            )
            wire = {
                site: self.load.injected.get(site, 0) for site in WIRE_SITES
            }
            lines.append(
                "injected(wire): "
                + " ".join(f"{site}={count}" for site, count in sorted(wire.items()))
            )
            lines.append(
                f"wrong_bytes: {self.load.wrong_bytes + self.restart_wrong_bytes}"
            )
            lines.append(f"stale_reads: {self.load.stale_reads}")
            lines.append(f"crashes: {self.load.crashes}")
        lines.append(f"drain_exit_code: {self.drain_exit_code}")
        lines.append(f"invariant_failures: {self.invariant_failures}")
        lines.append(
            "restart_warm: "
            + ("yes" if self.restart_ratio >= 0.95 else "NO")
        )
        if self.probe is not None:
            lines.append(
                f"overload: sheds={self.probe.shed_total} "
                f"shed_zzone={self.probe.shed_zzone} "
                f"latency_ratio={self.probe.latency_ratio:.3f} "
                f"bounded_inflight="
                + (
                    "yes"
                    if self.probe.max_inflight <= self.probe.inflight_hard
                    else "NO"
                )
            )
        if self.violations:
            lines.append(f"FAIL ({len(self.violations)} violations)")
            for violation in self.violations:
                lines.append(f"  - {violation}")
        else:
            lines.append("OK: served, shed, drained, and restarted cleanly")
        return "\n".join(lines)

    def render_metrics(self) -> str:
        """Timing-dependent detail (not diffed)."""
        lines = [
            f"resident(distinct keys): drained={self.resident_before} "
            f"after_restart={self.resident_after} ({self.restart_ratio:.3f})",
            f"snapshot: loaded={self.snapshot_loaded} "
            f"skipped={self.snapshot_skipped}",
            f"audits: {self.audits}",
        ]
        if self.load is not None:
            lines.append(self.load.render_metrics())
        for name in sorted(self.zzone_counters):
            lines.append(f"  zzone.{name}: {self.zzone_counters[name]}")
        return "\n".join(lines)


#: The Z-zone counters the report prints (and ``_judge`` weighs damage
#: by), read from the server's registry as ``cache_zzone_<name>``.
_ZZONE_REPORTED = tuple(
    name for name in INTEGRITY_FIELDS if name != "staged_checksum_failures"
) + ("evicted_items",)


def run_server_chaos(
    seed: int = 0,
    connections: int = 4,
    requests_per_conn: int = 1_500,
    keys_per_conn: int = 150,
    shards: int = 2,
    capacity: int = 256 * 1024,
    plan: Optional[FaultPlan] = None,
    workdir: Optional[str] = None,
    overload: bool = True,
) -> ServerChaosReport:
    """Run the whole over-the-wire chaos lifecycle; see the module doc."""
    if plan is None:
        plan = default_server_plan(seed)
    return asyncio.run(
        _run_server_chaos(
            seed,
            connections,
            requests_per_conn,
            keys_per_conn,
            shards,
            capacity,
            plan,
            workdir,
            overload,
        )
    )


async def _run_server_chaos(
    seed: int,
    connections: int,
    requests_per_conn: int,
    keys_per_conn: int,
    shards: int,
    capacity: int,
    plan: FaultPlan,
    workdir: Optional[str],
    overload: bool,
) -> ServerChaosReport:
    report = ServerChaosReport(
        seed=seed,
        connections=connections,
        requests_per_conn=requests_per_conn,
        keys_per_conn=keys_per_conn,
        shards=shards,
        plan=plan,
    )
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="zx-server-chaos-")
    snapshot_path = os.path.join(workdir, "chaos.snap")

    # -- phase 1: chaos traffic against a faulted server ----------------------
    cache = ShardedZExpander(
        ZExpanderConfig(
            total_capacity=capacity, seed=seed, fault_plan=_cache_site_plan(plan)
        ),
        num_shards=shards,
    )
    server_config = ServerConfig(
        port=0,
        read_timeout=0.12,
        drain_deadline=5.0,
        snapshot_path=snapshot_path,
        audit_interval=256,
        admission=AdmissionConfig(
            rate=1e6, burst=1e5, inflight_soft=256, inflight_hard=512,
            inflight_low=8,
        ),
    )
    server = CacheServer(cache, server_config)
    await server.start()
    run_task = asyncio.create_task(server.run())

    load_config = LoadConfig(
        port=server.port,
        connections=connections,
        requests_per_conn=requests_per_conn,
        keys_per_conn=keys_per_conn,
        seed=seed,
        plan=plan,
        deadline=3.0,
    )
    load_config.validate()
    drivers = [
        _ConnectionDriver(load_config, conn_id, LoadReport(config=load_config))
        for conn_id in range(connections)
    ]
    # Share one report across drivers (run_loadgen does the same wiring;
    # done by hand here so the drivers' key states survive for the
    # post-restart verification sweep).
    shared = LoadReport(config=load_config)
    for driver in drivers:
        driver.report = shared
    results = await asyncio.gather(
        *(driver.run() for driver in drivers), return_exceptions=True
    )
    for result in results:
        if isinstance(result, BaseException):
            shared.crashes += 1
            shared.violations.append(
                f"connection driver crashed: {type(result).__name__}: {result}"
            )
    for site in WIRE_SITES:
        shared.injected[site] = sum(driver.arm.fired[site] for driver in drivers)
    await _verify_sweep(load_config, drivers, shared)
    shared.finalise()
    report.load = shared
    counters = server.registry.snapshot()
    report.zzone_counters = {
        name: counters[f"cache_zzone_{name}"] for name in _ZZONE_REPORTED
    }

    # -- phase 2: drain, snapshot, warm restart --------------------------------
    server.begin_drain()
    report.drain_exit_code = await run_task
    # Counted once the server has stopped, so walking the faulted cache
    # cannot disturb the seeded fault stream the traffic and the dump saw.
    report.resident_before = _distinct_resident(cache)
    report.invariant_failures = server.stats.invariant_failures
    if server.auditor is not None:
        report.audits = server.auditor.audits

    restart_cache = ShardedZExpander(
        ZExpanderConfig(total_capacity=capacity, seed=seed), num_shards=shards
    )
    restart_server = CacheServer(
        restart_cache, replace(server_config, snapshot_path=snapshot_path)
    )
    await restart_server.start()
    restart_task = asyncio.create_task(restart_server.run())
    report.snapshot_loaded = restart_server.stats.snapshot_loaded
    report.snapshot_skipped = restart_server.stats.snapshot_skipped
    report.resident_after = _distinct_resident(restart_cache)

    restart_report = LoadReport(
        config=replace(load_config, port=restart_server.port)
    )
    await _verify_sweep(restart_report.config, drivers, restart_report)
    report.restart_wrong_bytes = restart_report.wrong_bytes
    report.restart_resident = restart_report.verify_resident
    report.restart_expected = restart_report.verify_expected
    restart_server.begin_drain()
    await restart_task

    # -- phase 3: deterministic overload probe ---------------------------------
    if overload:
        report.probe = await _overload_probe(seed)

    _judge(report)
    return report


def _distinct_resident(cache: ShardedZExpander) -> int:
    """Distinct resident keys.

    Not ``item_count``: that counts a key twice while its shadowed
    Z-zone copy (a stale version after a SET, a promoted item's original)
    waits for its postponed removal, and a restart — which replays each
    key once — would look like it lost the difference.
    """
    return len({key for key, _value in cache.items()})


def _judge(report: ServerChaosReport) -> None:
    load = report.load
    assert load is not None
    report.violations.extend(load.violations)
    if report.restart_wrong_bytes:
        report.violations.append(
            f"{report.restart_wrong_bytes} wrong-byte reads after restart"
        )
    if report.drain_exit_code != 0:
        report.violations.append(
            f"drain exited {report.drain_exit_code}, expected 0"
        )
    if report.invariant_failures:
        report.violations.append(
            f"{report.invariant_failures} invariant failures during serving"
        )
    if report.restart_ratio < 0.95:
        report.violations.append(
            f"warm restart restored only {report.restart_ratio:.3f} "
            "of resident items (need >= 0.95)"
        )
    damage = (
        report.zzone_counters.get("quarantined_items", 0)
        + report.zzone_counters.get("evicted_items", 0)
    )
    issued = load.issued_gets + load.issued_sets + load.issued_deletes
    allowed = DAMAGE_MISS_FACTOR * damage + MISS_SLACK_FRACTION * max(1, issued)
    if load.misses_after_set > allowed:
        report.violations.append(
            f"disproportionate degradation: {load.misses_after_set} misses "
            f"on written keys for {damage} damaged/evicted items "
            f"(allowed {allowed:.0f})"
        )
    probe = report.probe
    if probe is not None:
        if probe.shed_total == 0 or probe.shed_zzone == 0:
            report.violations.append(
                "overload probe shed nothing (expected Z-zone-first shedding)"
            )
        if probe.overload_errors_seen != probe.shed_total:
            report.violations.append(
                f"{probe.shed_total} sheds but {probe.overload_errors_seen} "
                "SERVER_ERROR overloaded replies seen"
            )
        if probe.latency_ratio > 2.0:
            report.violations.append(
                f"modeled N-zone service time {probe.latency_ratio:.3f}x "
                "unloaded (need <= 2x)"
            )
        if probe.max_inflight > probe.inflight_hard:
            report.violations.append(
                f"inflight reached {probe.max_inflight}, past the hard cap "
                f"{probe.inflight_hard} (unbounded queue growth)"
            )


# -- the overload probe --------------------------------------------------------

PROBE_KEYS = 360
PROBE_HOT_KEYS = 40
PROBE_REQUESTS = 700


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
    config = ServerConfig(
        port=0,
        read_timeout=2.0,
        admission=AdmissionConfig(
            rate=1e6, burst=1e5, inflight_soft=256, inflight_hard=512,
            inflight_low=8,
        ),
    )
    server = CacheServer(cache, config)
    await server.start()
    run_task = asyncio.create_task(server.run())
    conn = await _Connection.open(config.host, server.port)

    async def set_key(key_id: int) -> None:
        key = key_name(99, key_id)
        value = expected_value(seed, 99, key_id, 1)
        conn.writer.write(
            b"set %s 0 0 %d" % (key, len(value)) + CRLF + value + CRLF
        )
        await conn.writer.drain()
        await conn.read_line()

    async def get_key(key_id: int) -> str:
        """Issue a GET; returns 'hit', 'miss', or 'overloaded'."""
        conn.writer.write(b"get %s" % key_name(99, key_id) + CRLF)
        await conn.writer.drain()
        line = (await conn.read_line()).rstrip()
        if line.startswith(b"SERVER_ERROR"):
            return "overloaded"
        if line == b"END":
            return "miss"
        length = int(line.split(b" ")[3])
        await conn.read_exactly(length + 2)
        end = (await conn.read_line()).rstrip()
        assert end == b"END", end
        return "hit"

    # Populate: long tail first, hot head last so it owns the N-zone.
    for key_id in range(PROBE_HOT_KEYS, PROBE_KEYS):
        await set_key(key_id)
    for key_id in range(PROBE_HOT_KEYS):
        await set_key(key_id)

    def op_stream():
        import random as _random

        rng = _random.Random(seed + 17)
        for _ in range(PROBE_REQUESTS):
            if rng.random() < 0.7:
                yield rng.randrange(PROBE_HOT_KEYS)
            else:
                yield PROBE_HOT_KEYS + rng.randrange(PROBE_KEYS - PROBE_HOT_KEYS)

    # Unloaded twin: same GET stream, admission wide open.
    baseline_before = cache.stats.snapshot()
    for key_id in op_stream():
        await get_key(key_id)
    baseline_mix = mix_from_stats(cache.stats.delta(baseline_before))

    # Overloaded run: starved bucket, tick clock — 0.4 tokens/request.
    tight = AdmissionConfig(
        rate=40_000.0,
        burst=30.0,
        inflight_soft=8,
        inflight_hard=16,
        inflight_low=2,
    )
    # The registry's admission_* views stay on the first controller;
    # the probe reads the new one's stats directly.
    server.admission = AdmissionController(tight, now=TickClock(TICK_SECONDS))
    probe.inflight_hard = tight.inflight_hard
    overload_before = cache.stats.snapshot()
    for key_id in op_stream():
        outcome = await get_key(key_id)
        probe.requests += 1
        if outcome == "overloaded":
            probe.overload_errors_seen += 1
    overload_mix = mix_from_stats(cache.stats.delta(overload_before))
    stats = server.admission.stats
    probe.admitted = stats.admitted
    probe.shed_total = stats.shed_total
    probe.shed_zzone = stats.shed_zzone
    probe.max_inflight = stats.max_inflight

    model = PerformanceModel(HIGH_PERFORMANCE_COSTS)
    probe.latency_ratio = model.service_time(overload_mix) / model.service_time(
        baseline_mix
    )

    conn.close()
    server.begin_drain()
    await run_task
    return probe
