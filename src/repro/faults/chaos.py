"""End-to-end chaos replay: inject faults, assert graceful degradation.

:func:`run_chaos` replays one of the paper's workloads twice — once clean
(the baseline twin), once with a seeded :class:`FaultPlan` — and checks
the contract the integrity subsystem promises:

1. **Never crashes.**  Every injected fault is absorbed; any exception
   escaping the replay is a violation.
2. **Invariants hold.**  An :class:`InvariantAuditor` re-verifies byte
   accounting and structure throughout the run and once more at the end.
3. **Faults are detected.**  If bit-flips were injected, the checksum
   counters must be nonzero — silent corruption is the one unforgivable
   outcome.
4. **Degradation is proportional.**  Extra misses are bounded by a
   generous linear function of the damage actually inflicted
   (quarantined + squeeze-evicted items), so a handful of bad blocks
   cannot collapse the hit rate.

Everything — trace, values, fault firings — derives from explicit seeds,
so a chaos run is reproducible: same seed, same report, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.clock import VirtualClock
from repro.core.config import ZExpanderConfig
from repro.core.replay import ReplayStats, replay_trace
from repro.core.zexpander import ZExpander
from repro.experiments.common import (
    Scale,
    base_size_of,
    build_trace,
    build_value_source,
)
from repro.faults.auditor import InvariantAuditor
from repro.faults.plan import FaultPlan
from repro.zzone.zzone import INTEGRITY_FIELDS

#: The degradation bound of every chaos run, library and over the wire.
#: A quarantined or squeeze-evicted item may cost a few extra misses
#: (the demand-filled copy can be evicted again under pressure); the
#: proportionality bound allows this factor per damaged item ...
DAMAGE_MISS_FACTOR = 4
#: ... plus this fraction of measured (or issued) requests as absolute
#: slack (clock skew and emergency sweeps perturb policy decisions
#: slightly even when no data is damaged).
MISS_SLACK_FRACTION = 0.02


@dataclass
class ChaosReport:
    """Outcome of one chaos run; :meth:`render` is byte-deterministic."""

    workload: str
    num_keys: int
    num_requests: int
    seed: int
    plan: FaultPlan
    injected: Dict[str, int] = field(default_factory=dict)
    audits: int = 0
    replay: Optional[ReplayStats] = None
    baseline: Optional[ReplayStats] = None
    zzone_counters: Dict[str, int] = field(default_factory=dict)
    baseline_evicted_items: int = 0
    final_codec: str = ""
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [
            f"chaos: workload={self.workload} keys={self.num_keys} "
            f"requests={self.num_requests} seed={self.seed}",
            f"plan: seed={self.plan.seed} "
            f"sites={','.join(self.plan.sites) or '-'}",
        ]
        total = sum(self.injected.values())
        lines.append(f"injected: total={total}")
        for site in sorted(self.injected):
            if self.injected[site]:
                lines.append(f"  {site}: {self.injected[site]}")
        if self.replay is not None:
            lines.append(
                f"replay: requests={self.replay.requests} "
                f"miss_ratio={self.replay.miss_ratio:.6f}"
            )
        lines.append(
            f"baseline: requests={self.baseline.requests} "
            f"miss_ratio={self.baseline.miss_ratio:.6f}"
        )
        lines.append("zzone integrity:")
        for name in sorted(self.zzone_counters):
            lines.append(f"  {name}: {self.zzone_counters[name]}")
        lines.append(f"final codec: {self.final_codec}")
        lines.append(f"invariant audits: {self.audits}")
        if self.violations:
            lines.append(f"FAIL ({len(self.violations)} violations)")
            for violation in self.violations:
                lines.append(f"  - {violation}")
        else:
            lines.append("OK: survived all injected faults")
        return "\n".join(lines)


_INTEGRITY_COUNTERS = INTEGRITY_FIELDS + ("evicted_items",)


def run_chaos(
    workload: str = "ETC",
    num_keys: int = 2_000,
    num_requests: int = 40_000,
    seed: int = 0,
    plan: Optional[FaultPlan] = None,
    audit_interval: int = 512,
    append_region_bytes: Optional[int] = None,
) -> ChaosReport:
    """Replay ``workload`` under ``plan`` and audit the degradation.

    Both twins run ``ZExpanderConfig``'s default write path — the
    write-combining append region ``cli serve`` ships — so the contract
    is held over staged bytes and their CRC quarantine, not only over
    sealed blocks.  ``append_region_bytes=0`` replays the paper's
    reconstruct-on-every-put instead.
    """
    if plan is None:
        plan = FaultPlan.default(seed)
    scale = Scale(num_keys=num_keys, num_requests=num_requests, seed=seed)
    trace = build_trace(workload, scale)
    values = build_value_source(workload, trace, seed=seed)
    capacity = max(64 * 1024, int(base_size_of(workload, scale)))
    report = ChaosReport(
        workload=workload,
        num_keys=num_keys,
        num_requests=num_requests,
        seed=seed,
        plan=plan,
    )

    clean_cache = ZExpander(
        ZExpanderConfig(
            total_capacity=capacity,
            seed=seed,
            append_region_bytes=append_region_bytes,
        ),
        clock=VirtualClock(),
    )
    report.baseline = replay_trace(
        clean_cache, trace, values, clock=clean_cache.clock
    )
    report.baseline_evicted_items = clean_cache.zzone.stats.evicted_items

    config = ZExpanderConfig(
        total_capacity=capacity,
        seed=seed,
        fault_plan=plan,
        append_region_bytes=append_region_bytes,
    )
    cache = ZExpander(config, clock=VirtualClock())
    auditor = InvariantAuditor(cache, interval=audit_interval)
    try:
        report.replay = replay_trace(
            cache,
            trace,
            values,
            clock=cache.clock,
            on_request=auditor.on_request,
        )
    except Exception as exc:  # the one thing chaos must never see
        report.violations.append(f"crashed: {type(exc).__name__}: {exc}")
    try:
        cache.check_invariants()
    except Exception as exc:
        report.violations.append(
            f"final invariant check failed: {type(exc).__name__}: {exc}"
        )

    injector = cache.fault_injector
    assert injector is not None
    report.injected = dict(injector.injected)
    report.audits = auditor.audits
    zstats = cache.zzone.stats
    report.zzone_counters = {
        name: getattr(zstats, name) for name in _INTEGRITY_COUNTERS
    }
    report.final_codec = cache.zzone.compressor.name

    # -- contract checks -------------------------------------------------------

    flips = injector.injected.get("block.bitflip", 0)
    detected = zstats.checksum_failures + zstats.staged_checksum_failures
    if flips > 0 and detected == 0:
        report.violations.append(
            f"{flips} bit-flips injected but no checksum failures detected "
            "(silent corruption)"
        )
    if flips > 0 and zstats.quarantined_blocks == 0 and zstats.quarantined_items == 0:
        report.violations.append(
            "corruption detected but nothing was quarantined"
        )

    if report.replay is not None:
        extra_misses = report.replay.get_misses - report.baseline.get_misses
        # Damage = items lost to faults: quarantined outright, plus the
        # evictions the squeezes forced beyond the clean twin's load.
        damage = zstats.quarantined_items + max(
            0, zstats.evicted_items - report.baseline_evicted_items
        )
        allowed = (
            DAMAGE_MISS_FACTOR * damage
            + MISS_SLACK_FRACTION * max(1, report.replay.requests)
        )
        if extra_misses > allowed:
            report.violations.append(
                f"disproportionate degradation: {extra_misses} extra misses "
                f"for {damage} damaged items (allowed {allowed:.0f})"
            )
    return report
