#!/usr/bin/env python
"""Wall-clock benchmark harness -> ``BENCH_wallclock.json``.

Unlike the figure benches (which measure the *simulated* metrics the
paper reports), this harness times the reproduction itself: how many
replay requests per second the data plane sustains, per-request latency
percentiles, Z-zone microbenchmarks, and optionally the end-to-end
experiment suite.  Run it before and after optimisation work::

    PYTHONPATH=src python benchmarks/bench_wallclock.py --scale smoke
    PYTHONPATH=src python benchmarks/bench_wallclock.py            # bench scale
    PYTHONPATH=src python benchmarks/bench_wallclock.py --runall --jobs 4

Every record is the best of interleaved rounds taken through
``benchmarks/timing.py`` (DESIGN.md §16) and lands in
``BENCH_wallclock.json`` at the repo root (override with ``--out``).
Three gates are checked on the records the run just wrote — the floors
are the constants below — and any red one makes the exit status 1.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional

from timing import (
    REPO_ROOT,
    Timed,
    describe,
    interleaved,
    record,
    sampled,
    timed,
    verdict,
)

from repro.analysis.benchjson import (
    BenchRecord,
    append_records,
    git_revision,
    load_records,
)
from repro.common.clock import VirtualClock
from repro.common.hashing import hash_key
from repro.core import SimpleKVCache, ZExpander, ZExpanderConfig, replay_trace
from repro.experiments.common import (
    Scale,
    base_size_of,
    build_trace,
    build_value_source,
)
from repro.experiments.mzx_runs import _memcached_factory, _page_bytes, scale_seed
from repro.metrics import MetricsRegistry
from repro.nzone.memcached import MemcachedZone
from repro.workloads.trace import OP_DELETE, OP_GET, OP_SET
from repro.zzone.zzone import ZZone

SCALES = {
    "smoke": Scale(num_keys=1500, num_requests=20_000, seed=42),
    "bench": Scale(num_keys=3000, num_requests=60_000, seed=42),
}
_REQUEST_RATE = 50_000.0

#: The served default (write-combining append region, promotion by
#: postponed removal) must replay at least this much faster than the
#: paper's region 0.  Twenty-one bench-scale measurements at PR 16 read
#: 1.18-1.68x, median 1.35x, twenty of them at 1.29x or more.
FASTPATH_SPEEDUP_FLOOR = 1.15
#: Region 0 may be at most this much slower than the newest committed
#: ``replay_etc_mzx_fastpath_off`` row of the same scale, once that row is
#: rescaled by the machine-speed anchor: the memcached replay taken in the
#: same interleave, now over committed.  Only a slowdown is a failure.
REGION0_DRIFT_BUDGET = 0.05
#: Replaying with a bound ``MetricsRegistry`` may cost at most this much.
METRICS_OVERHEAD_BUDGET = 0.05
#: Where the drift gate finds its committed rows, whatever ``--out`` says.
BASELINE = REPO_ROOT / "BENCH_wallclock.json"


class EtcReplay:
    """The seeded ETC trace and the caches it is replayed against, each
    sized at twice the trace's base size."""

    def __init__(self, scale: Scale) -> None:
        self.scale = scale
        self.trace = build_trace("ETC", scale)
        self.values = build_value_source("ETC", self.trace, seed=scale.seed)
        self.capacity = int(base_size_of("ETC", scale) * 2)

    def config(self, system: str, **extra) -> dict:
        return {
            "workload": "ETC",
            "system": system,
            "capacity_multiple": 2.0,
            "request_rate": _REQUEST_RATE,
            **extra,
            **asdict(self.scale),
        }

    def mzx(self, fastpath: bool = False):
        clock = VirtualClock()
        config = ZExpanderConfig(
            total_capacity=self.capacity,
            nzone_fraction=0.5,
            nzone_factory=_memcached_factory,
            adaptive=False,
            marker_interval_seconds=0.5,
            seed=scale_seed(self.trace),
            # ``fastpath`` is the served default (``ZExpanderConfig``'s own
            # append region, promotion by postponed removal); off is the
            # paper's region 0.
            append_region_bytes=None if fastpath else 0,
        )
        return ZExpander(config, clock=clock), clock

    def memcached(self):
        zone = MemcachedZone(self.capacity, page_bytes=_page_bytes(self.capacity))
        return SimpleKVCache(zone), VirtualClock()

    def throughput(self, build, registry=None) -> Timed:
        """One whole replay against a fresh ``build()``; carries the cache."""
        cache, clock = build()
        if registry is not None:
            cache.bind_metrics(registry)
        with timed(len(self.trace)) as run:
            replay_trace(
                cache,
                self.trace,
                self.values,
                clock=clock,
                request_rate=_REQUEST_RATE,
                registry=registry,
            )
        run.carry = cache
        return run

    def latency_us(self, build) -> List[float]:
        """Replay against a fresh ``build()`` with every request timed;
        the measured phase's samples (``replay_trace``'s 20 % warm-up)."""
        cache, clock = build()
        trace, values = self.trace, self.values
        tick = 1.0 / _REQUEST_RATE

        def serve(op, key, key_id):
            if op == OP_GET:
                if cache.get(key) is None:
                    cache.set(key, values.value(key_id))
            elif op == OP_SET:
                cache.set(key, values.value(key_id))
            elif op == OP_DELETE:
                cache.delete(key)

        def requests():
            for op, key_id, _size in trace:
                clock.advance(tick)
                yield partial(serve, op, trace.key_bytes(key_id), key_id)

        return sampled(requests()).samples_us[int(len(trace) * 0.2):]


def bench_replay(replay: EtcReplay) -> List[BenchRecord]:
    """Throughput of one ETC replay per system, and — from a second,
    cold-started replay in the same round — per-request latency."""

    def measure(build) -> Timed:
        run = replay.throughput(build)
        run.samples_us = replay.latency_us(build)
        return run

    systems = {"mzx": replay.mzx, "memcached": replay.memcached}
    estimates = interleaved(
        {system: partial(measure, build) for system, build in systems.items()}
    )
    return [
        record(f"replay_etc_{system}", replay.config(system), reduced)
        for system, reduced in estimates.items()
    ]


def bench_zzone(replay: EtcReplay) -> List[BenchRecord]:
    """Z-zone microbenchmarks: SET, GET hit, GET miss, sweep pressure."""
    scale = replay.scale
    count = max(500, scale.num_keys)
    keys = [b"zkey:%010d" % index for index in range(count)]
    text = b"the quick brown fox jumps over the lazy dog " * 3  # compressible
    values = [text[:88] + b"%08d" % index for index in range(count)]
    hashes = [hash_key(key) for key in keys]
    miss_keys = [b"miss:%010d" % index for index in range(count)]
    miss_hashes = [hash_key(key) for key in miss_keys]
    item_bytes = sum(len(k) + len(v) + 14 for k, v in zip(keys, values))

    def zone(capacity: int) -> ZZone:
        return ZZone(capacity=capacity, clock=VirtualClock(), seed=scale.seed)

    def puts(into: ZZone) -> Timed:
        return sampled(
            partial(into.put, key, value, hashed)
            for key, value, hashed in zip(keys, values, hashes)
        )

    def gets(asked, asked_hashes) -> Timed:
        resident = zone(item_bytes * 4)
        for key, value, hashed in zip(keys, values, hashes):
            resident.put(key, value, hashed)
        return sampled(
            partial(resident.get, key, hashed)
            for key, hashed in zip(asked, asked_hashes)
        )

    estimates = interleaved(
        {
            # An ample zone: no eviction pressure.
            "zzone_set": lambda: puts(zone(item_bytes * 4)),
            "zzone_get_hit": lambda: gets(keys, hashes),
            # Absent keys, answered by the Content Filter.
            "zzone_get_miss": lambda: gets(miss_keys, miss_hashes),
            # A zone sized for a quarter of the corpus, so puts keep
            # evicting through the CLOCK sweep.
            "zzone_sweep": lambda: puts(zone(item_bytes // 4)),
        }
    )
    config = {"items": count, "value_bytes": 96, **asdict(scale)}
    return [record(bench, config, reduced) for bench, reduced in estimates.items()]


def _ratio_record(bench: str, config: dict, over, under) -> BenchRecord:
    """A derived row: two estimates of one interleave, compared."""
    return BenchRecord(
        bench=bench,
        config=config,
        wall_s=over.value - under.value,
        unresolved=over.unresolved or under.unresolved,
    )


def bench_metrics_overhead(replay: EtcReplay) -> List[BenchRecord]:
    """Replay throughput with the metrics registry bound vs not.

    The observability layer promises near-zero cost: sampled latency
    timing plus lazy mounted views.  ``metrics_overhead`` carries the
    on/off ratio of best walls that ``METRICS_OVERHEAD_BUDGET`` gates.
    """

    def metered() -> Timed:
        registry = MetricsRegistry()
        run = replay.throughput(replay.mzx, registry)
        run.carry = registry
        return run

    estimates = interleaved(
        {"off": partial(replay.throughput, replay.mzx), "on": metered}
    )
    off, on = estimates["off"], estimates["on"]
    # Re-registration hands back the best round's live histogram.
    latency = on.best.carry.histogram("replay_request_seconds", timing=True)
    on_config = replay.config("mzx", metrics=True, latency_samples=latency.count)
    on_row = record("replay_etc_mzx_metrics_on", on_config, on)
    on_row.p50_us = latency.percentile(50.0) * 1e6
    on_row.p99_us = latency.percentile(99.0) * 1e6
    overhead = {
        "overhead_fraction": round(on.value / off.value - 1.0, 4),
        **asdict(replay.scale),
    }
    return [
        record("replay_etc_mzx_metrics_off", replay.config("mzx", metrics=False), off),
        on_row,
        _ratio_record("metrics_overhead", overhead, on, off),
    ]


def bench_fastpath(replay: EtcReplay) -> List[BenchRecord]:
    """M-zX replay at the served default ("on") vs the paper's region 0
    ("off"), with the memcached replay as the third mode of the same
    interleave: the anchor the drift gate rescales a committed row by, so
    it must share this exact method rather than reuse
    ``replay_etc_memcached``.  ``zzone_fastpath_speedup`` carries the
    off/on ratio of best walls that ``FASTPATH_SPEEDUP_FLOOR`` gates.
    """
    estimates = interleaved(
        {
            "off": partial(replay.throughput, replay.mzx),
            "on": partial(replay.throughput, partial(replay.mzx, fastpath=True)),
            "anchor": partial(replay.throughput, replay.memcached),
        }
    )
    off, on, anchor = estimates["off"], estimates["on"], estimates["anchor"]
    fast = on.best.carry
    stats = fast.zzone.stats
    region = fast.config.append_region_bytes
    on_config = replay.config(
        "mzx",
        append_region_bytes=region,
        staged_puts=stats.staged_puts,
        staging_flushes=stats.staging_flushes,
    )
    speedup = {
        "speedup": round(off.value / on.value, 4),
        "append_region_bytes": region,
        **asdict(replay.scale),
    }
    return [
        record(
            "replay_etc_mzx_fastpath_off",
            replay.config("mzx", append_region_bytes=0),
            off,
        ),
        record("replay_etc_mzx_fastpath_on", on_config, on),
        record("replay_etc_fastpath_anchor", replay.config("memcached"), anchor),
        _ratio_record("zzone_fastpath_speedup", speedup, off, on),
    ]


def bench_runall(scale: Scale, jobs: int) -> BenchRecord:
    """End-to-end ``cli run all`` timing (stdout suppressed), single shot."""
    import contextlib
    import io

    from repro.experiments.cli import main as cli_main

    argv = ["run", "all", "--keys", str(scale.num_keys), "--jobs", str(jobs)]
    argv += ["--requests", str(scale.num_requests), "--seed", str(scale.seed)]
    with timed(1) as run, contextlib.redirect_stdout(io.StringIO()):
        status = cli_main(argv)
    if status != 0:
        raise RuntimeError(f"cli run all exited with status {status}")
    config = {"jobs": jobs, **asdict(scale)}
    return BenchRecord(bench="cli_run_all", config=config, wall_s=run.wall_s)


def _committed_ops(baseline: List[BenchRecord], bench: str, num_keys: int) -> float:
    """Newest committed ops/s for ``bench`` at this scale (0.0 if absent)."""
    newest = 0.0
    for row in baseline:
        # Appended in measurement order, so the last match is the newest.
        if (
            row.bench == bench
            and row.config.get("num_keys") == num_keys
            and row.ops_per_sec
        ):
            newest = row.ops_per_sec
    return newest


def check_gates(rows: Dict[str, BenchRecord], baseline: List[BenchRecord]) -> bool:
    """The three gates, each on the rows this run just wrote."""
    speedup, overhead = rows["zzone_fastpath_speedup"], rows["metrics_overhead"]
    off = rows["replay_etc_mzx_fastpath_off"]
    anchor = rows["replay_etc_fastpath_anchor"]
    held = [
        verdict(
            "served default over region 0, replay ops/s",
            speedup.config["speedup"], speedup, floor=FASTPATH_SPEEDUP_FLOOR,
        ),
        verdict(
            "metrics-on replay wall over metrics-off",
            1.0 + overhead.config["overhead_fraction"],
            overhead, budget=1.0 + METRICS_OVERHEAD_BUDGET,
        ),
    ]
    num_keys = off.config["num_keys"]
    committed_off = _committed_ops(baseline, off.bench, num_keys)
    committed_anchor = _committed_ops(baseline, anchor.bench, num_keys)
    if committed_off and committed_anchor:
        machine = anchor.ops_per_sec / committed_anchor
        held.append(
            verdict(
                f"region 0 over its committed row (x{machine:.2f} by the anchor)",
                off.ops_per_sec / (committed_off * machine),
                off, anchor, floor=1.0 - REGION0_DRIFT_BUDGET,
            )
        )
    else:
        print(
            f"SKIP: region-0 drift: no committed {off.bench} / {anchor.bench} "
            f"rows at num_keys={num_keys}"
        )
    return all(held)


def main(argv=None, scale: Optional[Scale] = None) -> int:
    """``scale`` handed in directly (the tier-1 smoke test does) replaces
    ``--scale``; such a run is too short to judge, so its gate verdicts
    are printed but do not reach the exit status."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="bench")
    parser.add_argument(
        "--out",
        type=Path,
        default=BASELINE,
        help="output JSON path (default: repo-root BENCH_wallclock.json)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes for --runall"
    )
    parser.add_argument(
        "--runall",
        action="store_true",
        help="also time the full experiment suite (slow)",
    )
    args = parser.parse_args(argv)
    gated = scale is None
    if scale is None:
        scale = SCALES[args.scale]
    git_rev = git_revision(REPO_ROOT)
    # Read before this run's rows are merged in: the drift gate compares
    # against what was committed, not against itself.
    baseline = load_records(BASELINE) if BASELINE.exists() else []

    replay = EtcReplay(scale)
    records = []
    for bench in (bench_replay, bench_zzone, bench_metrics_overhead, bench_fastpath):
        for row in bench(replay):
            if row.ops_per_sec:
                print(describe(row))
            records.append(row)
    if args.runall:
        row = bench_runall(scale, args.jobs)
        print(f"{row.bench} (jobs={args.jobs}): {row.wall_s:.1f} s")
        records.append(row)
    for row in records:
        row.git_rev = git_rev

    merged = append_records(records, args.out)
    print(
        f"wrote {len(records)} records to {args.out} "
        f"({len(merged)} total after merge)"
    )
    held = check_gates({row.bench: row for row in records}, baseline)
    return 0 if held or not gated else 1


if __name__ == "__main__":
    sys.exit(main())
