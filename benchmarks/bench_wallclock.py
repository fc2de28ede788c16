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

Results land in ``BENCH_wallclock.json`` at the repo root (override with
``--out``), one record per bench in the
:class:`repro.analysis.benchjson.BenchRecord` schema.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.benchjson import (
    BenchRecord,
    append_records,
    git_revision,
    percentile,
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
from repro.nzone.memcached import MemcachedZone
from repro.workloads.trace import OP_DELETE, OP_GET, OP_SET
from repro.zzone.zzone import ZZone

SCALES = {
    "smoke": Scale(num_keys=1500, num_requests=20_000, seed=42),
    "bench": Scale(num_keys=3000, num_requests=60_000, seed=42),
}
_REQUEST_RATE = 50_000.0


def _scale_config(scale: Scale) -> dict:
    return {
        "num_keys": scale.num_keys,
        "num_requests": scale.num_requests,
        "seed": scale.seed,
    }


def _build_mzx(
    scale: Scale,
    trace,
    capacity: int,
    verify_checksums: bool = True,
    fastpath: bool = False,
):
    clock = VirtualClock()
    config = ZExpanderConfig(
        total_capacity=capacity,
        nzone_fraction=0.5,
        nzone_factory=_memcached_factory,
        adaptive=False,
        marker_interval_seconds=0.5,
        seed=scale_seed(trace),
        verify_checksums=verify_checksums,
        # ``fastpath`` is the served default (``ZExpanderConfig``'s own
        # append region, promotion by postponed removal); off is the
        # paper's region 0.
        append_region_bytes=None if fastpath else 0,
    )
    return ZExpander(config, clock=clock), clock


def _build_memcached(capacity: int):
    cache = SimpleKVCache(MemcachedZone(capacity, page_bytes=_page_bytes(capacity)))
    return cache, VirtualClock()


def _latency_pass(cache, trace, values, clock, warmup_fraction=0.2):
    """Replay once more, timing each request; returns measured-phase µs."""
    warmup = int(len(trace) * warmup_fraction)
    tick = 1.0 / _REQUEST_RATE
    samples = []
    timer = time.perf_counter
    for position, (op, key_id, _size) in enumerate(trace):
        clock.advance(tick)
        key = trace.key_bytes(key_id)
        started = timer()
        if op == OP_GET:
            if cache.get(key) is None:
                cache.set(key, values.value(key_id))
        elif op == OP_SET:
            cache.set(key, values.value(key_id))
        elif op == OP_DELETE:
            cache.delete(key)
        if position >= warmup:
            samples.append((timer() - started) * 1e6)
    return samples


def bench_replay(name: str, system: str, scale: Scale, git_rev: str) -> BenchRecord:
    """Throughput + latency of one ETC replay against ``system``."""
    trace = build_trace("ETC", scale)
    values = build_value_source("ETC", trace, seed=scale.seed)
    capacity = int(base_size_of("ETC", scale) * 2)
    if system == "mzx":
        cache, clock = _build_mzx(scale, trace, capacity)
    else:
        cache, clock = _build_memcached(capacity)
    started = time.perf_counter()
    replay_trace(cache, trace, values, clock=clock, request_rate=_REQUEST_RATE)
    wall = time.perf_counter() - started

    # Fresh cache for the latency pass so both passes see a cold start.
    if system == "mzx":
        cache, clock = _build_mzx(scale, trace, capacity)
    else:
        cache, clock = _build_memcached(capacity)
    samples = _latency_pass(cache, trace, values, clock)
    return BenchRecord(
        bench=name,
        config={
            "workload": "ETC",
            "system": system,
            "capacity_multiple": 2.0,
            "request_rate": _REQUEST_RATE,
            **_scale_config(scale),
        },
        ops_per_sec=len(trace) / wall,
        p50_us=percentile(samples, 50.0),
        p99_us=percentile(samples, 99.0),
        wall_s=wall,
        git_rev=git_rev,
    )


def _zzone_corpus(count: int, value_bytes: int = 96):
    keys = [b"zkey:%010d" % index for index in range(count)]
    value = b"the quick brown fox jumps over the lazy dog "  # compressible
    value = (value * ((value_bytes // len(value)) + 1))[:value_bytes]
    values = [value[:-8] + b"%08d" % index for index in range(count)]
    return keys, [hash_key(key) for key in keys], values


def bench_zzone(scale: Scale, git_rev: str) -> list:
    """Z-zone microbenchmarks: SET, GET hit, GET miss, sweep pressure."""
    count = max(500, scale.num_keys)
    keys, hashes, values = _zzone_corpus(count)
    item_bytes = sum(len(k) + len(v) + 14 for k, v in zip(keys, values))
    records = []
    timer = time.perf_counter
    config = {"items": count, "value_bytes": 96, **_scale_config(scale)}

    # SET: populate an ample zone (no eviction pressure).
    zone = ZZone(capacity=item_bytes * 4, clock=VirtualClock(), seed=scale.seed)
    samples = []
    started = timer()
    for key, hashed, value in zip(keys, hashes, values):
        t0 = timer()
        zone.put(key, value, hashed)
        samples.append((timer() - t0) * 1e6)
    wall = timer() - started
    records.append(
        BenchRecord(
            bench="zzone_set",
            config=config,
            ops_per_sec=count / wall,
            p50_us=percentile(samples, 50.0),
            p99_us=percentile(samples, 99.0),
            wall_s=wall,
            git_rev=git_rev,
        )
    )

    # GET hit: every key is resident.
    samples = []
    started = timer()
    for key, hashed in zip(keys, hashes):
        t0 = timer()
        zone.get(key, hashed)
        samples.append((timer() - t0) * 1e6)
    wall = timer() - started
    records.append(
        BenchRecord(
            bench="zzone_get_hit",
            config=config,
            ops_per_sec=count / wall,
            p50_us=percentile(samples, 50.0),
            p99_us=percentile(samples, 99.0),
            wall_s=wall,
            git_rev=git_rev,
        )
    )

    # GET miss: absent keys, answered by the Content Filter.
    miss_keys = [b"miss:%010d" % index for index in range(count)]
    miss_hashes = [hash_key(key) for key in miss_keys]
    samples = []
    started = timer()
    for key, hashed in zip(miss_keys, miss_hashes):
        t0 = timer()
        zone.get(key, hashed)
        samples.append((timer() - t0) * 1e6)
    wall = timer() - started
    records.append(
        BenchRecord(
            bench="zzone_get_miss",
            config=config,
            ops_per_sec=count / wall,
            p50_us=percentile(samples, 50.0),
            p99_us=percentile(samples, 99.0),
            wall_s=wall,
            git_rev=git_rev,
        )
    )

    # Sweep: a zone sized for a quarter of the corpus, so puts keep
    # evicting through the CLOCK sweep.
    zone = ZZone(capacity=item_bytes // 4, clock=VirtualClock(), seed=scale.seed)
    samples = []
    started = timer()
    for key, hashed, value in zip(keys, hashes, values):
        t0 = timer()
        zone.put(key, value, hashed)
        samples.append((timer() - t0) * 1e6)
    wall = timer() - started
    records.append(
        BenchRecord(
            bench="zzone_sweep",
            config={**config, "capacity_fraction": 0.25},
            ops_per_sec=count / wall,
            p50_us=percentile(samples, 50.0),
            p99_us=percentile(samples, 99.0),
            wall_s=wall,
            git_rev=git_rev,
        )
    )
    return records


def bench_integrity(scale: Scale, git_rev: str) -> list:
    """Integrity-check overhead: the same paths with checksums on vs off.

    Two measurements: the Z-zone GET-hit microbench (where the per-block
    CRC is the *entire* added work) and the end-to-end M-zX replay with
    ``verify_checksums=False`` (the PR-1 fast path, which must stay
    within a few percent of the checked default).  A synthetic
    ``integrity_check_overhead`` record carries the computed ratios.
    """
    count = max(500, scale.num_keys)
    keys, hashes, values = _zzone_corpus(count)
    item_bytes = sum(len(k) + len(v) + 14 for k, v in zip(keys, values))
    timer = time.perf_counter
    records = []
    walls = {}
    for verify in (True, False):
        zone = ZZone(
            capacity=item_bytes * 4,
            clock=VirtualClock(),
            seed=scale.seed,
            verify_checksums=verify,
        )
        for key, hashed, value in zip(keys, hashes, values):
            zone.put(key, value, hashed)
        samples = []
        started = timer()
        for key, hashed in zip(keys, hashes):
            t0 = timer()
            zone.get(key, hashed)
            samples.append((timer() - t0) * 1e6)
        wall = timer() - started
        walls[verify] = wall
        records.append(
            BenchRecord(
                bench=f"zzone_get_hit_checksum_{'on' if verify else 'off'}",
                config={
                    "items": count,
                    "value_bytes": 96,
                    "verify_checksums": verify,
                    **_scale_config(scale),
                },
                ops_per_sec=count / wall,
                p50_us=percentile(samples, 50.0),
                p99_us=percentile(samples, 99.0),
                wall_s=wall,
                git_rev=git_rev,
            )
        )

    trace = build_trace("ETC", scale)
    value_source = build_value_source("ETC", trace, seed=scale.seed)
    capacity = int(base_size_of("ETC", scale) * 2)
    replay_walls = {}
    for verify in (True, False):
        cache, clock = _build_mzx(scale, trace, capacity, verify_checksums=verify)
        started = timer()
        replay_trace(
            cache, trace, value_source, clock=clock, request_rate=_REQUEST_RATE
        )
        replay_walls[verify] = timer() - started
    records.append(
        BenchRecord(
            bench="replay_etc_mzx_nochecksum",
            config={
                "workload": "ETC",
                "system": "mzx",
                "capacity_multiple": 2.0,
                "request_rate": _REQUEST_RATE,
                "verify_checksums": False,
                **_scale_config(scale),
            },
            ops_per_sec=len(trace) / replay_walls[False],
            wall_s=replay_walls[False],
            git_rev=git_rev,
        )
    )
    records.append(
        BenchRecord(
            bench="integrity_check_overhead",
            config={
                "get_hit_overhead_fraction": round(
                    walls[True] / walls[False] - 1.0, 4
                ),
                "replay_overhead_fraction": round(
                    replay_walls[True] / replay_walls[False] - 1.0, 4
                ),
                **_scale_config(scale),
            },
            wall_s=walls[True] - walls[False],
            git_rev=git_rev,
        )
    )
    return records


def bench_metrics_overhead(scale: Scale, git_rev: str) -> list:
    """Replay throughput with the metrics registry on vs off.

    The observability layer promises near-zero cost: sampled latency
    timing plus lazy mounted views.  Best-of-3 walls per mode keep the
    comparison stable on noisy machines; the ``metrics_overhead`` record
    carries the on/off ratio the CI smoke job asserts against.
    """
    from repro.metrics import MetricsRegistry

    trace = build_trace("ETC", scale)
    values = build_value_source("ETC", trace, seed=scale.seed)
    capacity = int(base_size_of("ETC", scale) * 2)
    timer = time.perf_counter
    walls = {False: float("inf"), True: float("inf")}
    registry = None
    # Interleave the two modes (off, on, off, on, ...) so machine warmup
    # and frequency drift hit both sides equally; keep the best of each.
    for _ in range(3):
        for metrics_on in (False, True):
            cache, clock = _build_mzx(scale, trace, capacity)
            run_registry = MetricsRegistry() if metrics_on else None
            if metrics_on:
                cache.bind_metrics(run_registry)
            started = timer()
            replay_trace(
                cache,
                trace,
                values,
                clock=clock,
                request_rate=_REQUEST_RATE,
                registry=run_registry,
            )
            wall = timer() - started
            if wall < walls[metrics_on]:
                walls[metrics_on] = wall
                if metrics_on:
                    registry = run_registry

    latency = registry.snapshot()["replay_request_seconds"]
    # Re-registration hands back the live histogram for percentiles.
    hist = registry.histogram("replay_request_seconds", timing=True)
    records = [
        BenchRecord(
            bench="replay_etc_mzx_metrics_off",
            config={
                "workload": "ETC",
                "system": "mzx",
                "metrics": False,
                "request_rate": _REQUEST_RATE,
                **_scale_config(scale),
            },
            ops_per_sec=len(trace) / walls["off"],
            wall_s=walls["off"],
            git_rev=git_rev,
        ),
        BenchRecord(
            bench="replay_etc_mzx_metrics_on",
            config={
                "workload": "ETC",
                "system": "mzx",
                "metrics": True,
                "request_rate": _REQUEST_RATE,
                "latency_samples": latency["count"],
                **_scale_config(scale),
            },
            ops_per_sec=len(trace) / walls[True],
            p50_us=hist.percentile(50.0) * 1e6,
            p99_us=hist.percentile(99.0) * 1e6,
            wall_s=walls[True],
            git_rev=git_rev,
        ),
        BenchRecord(
            bench="metrics_overhead",
            config={
                "overhead_fraction": round(walls[True] / walls[False] - 1.0, 4),
                **_scale_config(scale),
            },
            wall_s=walls[True] - walls[False],
            git_rev=git_rev,
        ),
    ]
    return records


def bench_fastpath(scale: Scale, git_rev: str) -> list:
    """M-zX replay at the served default ("on") vs the paper's region 0
    ("off"), best-of-3 each.

    Interleaved (off, on, off, on, ...) so machine warmup and frequency
    drift hit both sides equally.  The ``zzone_fastpath_speedup`` record
    carries the on/off ratio the CI ``zzone-fastpath`` gate asserts
    against (its floor is in ``fastpath_gate.py``).
    """
    trace = build_trace("ETC", scale)
    values = build_value_source("ETC", trace, seed=scale.seed)
    capacity = int(base_size_of("ETC", scale) * 2)
    timer = time.perf_counter
    # "anchor" is the memcached replay measured inside the same
    # interleaved loop: the fastpath gate rescales committed numbers by
    # it, so it must share this exact methodology (best-of-3, fresh
    # cache per round) rather than reuse the single-shot
    # replay_etc_memcached record.
    walls = {"off": float("inf"), "on": float("inf"), "anchor": float("inf")}
    fast = None
    for _ in range(3):
        for mode in ("off", "on", "anchor"):
            if mode == "anchor":
                cache, clock = _build_memcached(capacity)
            else:
                cache, clock = _build_mzx(
                    scale, trace, capacity, fastpath=(mode == "on")
                )
            started = timer()
            replay_trace(
                cache, trace, values, clock=clock, request_rate=_REQUEST_RATE
            )
            wall = timer() - started
            if wall < walls[mode]:
                walls[mode] = wall
                if mode == "on":
                    fast = cache
    fast_stats = fast.zzone.stats
    fast_knobs = {
        "append_region_bytes": fast.config.append_region_bytes,
        "decompressed_cache_blocks": fast.config.decompressed_cache_blocks,
    }
    fast_config = {
        "workload": "ETC",
        "system": "mzx",
        "capacity_multiple": 2.0,
        "request_rate": _REQUEST_RATE,
        **fast_knobs,
        **_scale_config(scale),
    }
    return [
        BenchRecord(
            bench="replay_etc_mzx_fastpath_off",
            config={
                **fast_config,
                "append_region_bytes": 0,
                "decompressed_cache_blocks": 0,
            },
            ops_per_sec=len(trace) / walls["off"],
            wall_s=walls["off"],
            git_rev=git_rev,
        ),
        BenchRecord(
            bench="replay_etc_mzx_fastpath_on",
            config={
                **fast_config,
                "staged_puts": fast_stats.staged_puts,
                "staging_flushes": fast_stats.staging_flushes,
                "container_cache_hits": fast_stats.container_cache_hits,
                "container_cache_misses": fast_stats.container_cache_misses,
            },
            ops_per_sec=len(trace) / walls["on"],
            wall_s=walls["on"],
            git_rev=git_rev,
        ),
        BenchRecord(
            bench="replay_etc_fastpath_anchor",
            config={
                "workload": "ETC",
                "system": "memcached",
                "capacity_multiple": 2.0,
                "request_rate": _REQUEST_RATE,
                **_scale_config(scale),
            },
            ops_per_sec=len(trace) / walls["anchor"],
            wall_s=walls["anchor"],
            git_rev=git_rev,
        ),
        BenchRecord(
            bench="zzone_fastpath_speedup",
            config={
                "speedup": round(walls["off"] / walls["on"], 4),
                **fast_knobs,
                **_scale_config(scale),
            },
            wall_s=walls["off"] - walls["on"],
            git_rev=git_rev,
        ),
    ]


def bench_runall(scale: Scale, jobs: int, git_rev: str) -> BenchRecord:
    """End-to-end ``cli run all`` timing (stdout suppressed)."""
    import contextlib
    import io

    from repro.experiments.cli import main as cli_main

    argv = [
        "run",
        "all",
        "--keys",
        str(scale.num_keys),
        "--requests",
        str(scale.num_requests),
        "--seed",
        str(scale.seed),
        "--jobs",
        str(jobs),
    ]
    started = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli_main(argv)
    wall = time.perf_counter() - started
    if status != 0:
        raise RuntimeError(f"cli run all exited with status {status}")
    return BenchRecord(
        bench="cli_run_all",
        config={"jobs": jobs, **_scale_config(scale)},
        wall_s=wall,
        git_rev=git_rev,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="bench")
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_wallclock.json",
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
    scale = SCALES[args.scale]
    git_rev = git_revision(REPO_ROOT)

    records = []
    for name, system in (
        ("replay_etc_mzx", "mzx"),
        ("replay_etc_memcached", "memcached"),
    ):
        record = bench_replay(name, system, scale, git_rev)
        print(
            f"{record.bench}: {record.ops_per_sec:,.0f} ops/s  "
            f"p50 {record.p50_us:.1f} µs  p99 {record.p99_us:.1f} µs  "
            f"({record.wall_s:.2f} s)"
        )
        records.append(record)
    for record in bench_zzone(scale, git_rev):
        print(
            f"{record.bench}: {record.ops_per_sec:,.0f} ops/s  "
            f"p50 {record.p50_us:.1f} µs  p99 {record.p99_us:.1f} µs  "
            f"({record.wall_s:.2f} s)"
        )
        records.append(record)
    for record in bench_integrity(scale, git_rev):
        if record.bench == "integrity_check_overhead":
            print(
                "integrity_check_overhead: "
                f"get-hit {record.config['get_hit_overhead_fraction']:+.1%}  "
                f"replay {record.config['replay_overhead_fraction']:+.1%}"
            )
        elif record.ops_per_sec:
            print(
                f"{record.bench}: {record.ops_per_sec:,.0f} ops/s  "
                f"({record.wall_s:.2f} s)"
            )
        records.append(record)
    for record in bench_metrics_overhead(scale, git_rev):
        if record.bench == "metrics_overhead":
            print(
                "metrics_overhead: "
                f"replay {record.config['overhead_fraction']:+.1%}"
            )
        elif record.ops_per_sec:
            print(
                f"{record.bench}: {record.ops_per_sec:,.0f} ops/s  "
                f"({record.wall_s:.2f} s)"
            )
        records.append(record)
    for record in bench_fastpath(scale, git_rev):
        if record.bench == "zzone_fastpath_speedup":
            print(f"zzone_fastpath_speedup: {record.config['speedup']:.2f}x")
        elif record.ops_per_sec:
            print(
                f"{record.bench}: {record.ops_per_sec:,.0f} ops/s  "
                f"({record.wall_s:.2f} s)"
            )
        records.append(record)
    if args.runall:
        record = bench_runall(scale, args.jobs, git_rev)
        print(f"{record.bench} (jobs={args.jobs}): {record.wall_s:.1f} s")
        records.append(record)

    merged = append_records(records, args.out)
    print(
        f"wrote {len(records)} records to {args.out} "
        f"({len(merged)} total after merge)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
