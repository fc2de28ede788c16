#!/usr/bin/env python
"""Serving-layer wall-clock benchmark -> ``BENCH_server.json``.

Times the asyncio memcached front-end over loopback: single-connection
request round-trip latency (GET and SET), pooled-client concurrent
throughput, and multi-GET batching.  Run it like the other wall-clock
harness::

    PYTHONPATH=src python benchmarks/bench_server.py --scale smoke
    PYTHONPATH=src python benchmarks/bench_server.py              # bench scale

Results land in ``BENCH_server.json`` at the repo root (override with
``--out``), one :class:`repro.analysis.benchjson.BenchRecord` per bench.
"""

from __future__ import annotations

import argparse
import asyncio
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
from repro.core.config import ZExpanderConfig
from repro.core.sharded import ShardedZExpander
from repro.metrics import Histogram, log_buckets, merge_snapshots
from repro.server.client import MemcacheClient
from repro.server.loadgen import expected_value, key_name
from repro.server.server import CacheServer, ServerConfig

SCALES = {
    "smoke": {"ops": 2_000, "keys": 400},
    "bench": {"ops": 10_000, "keys": 1_000},
}


async def _started_server(seed: int = 42, journal_dir: str | None = None):
    cache = ShardedZExpander(
        ZExpanderConfig(total_capacity=8 * 1024 * 1024, seed=seed),
        num_shards=2,
    )
    config = ServerConfig(port=0)
    if journal_dir is not None:
        config = ServerConfig(port=0, journal_dir=journal_dir, fsync="interval")
    server = CacheServer(cache, config)
    await server.start()
    task = asyncio.create_task(server.run())
    return server, task


async def _populate(client: MemcacheClient, keys: int, seed: int) -> None:
    for key_id in range(keys):
        await client.set(key_name(0, key_id), expected_value(seed, 0, key_id, 1))


#: One revision probe per run: every record of a run carries the same
#: rev (the one the whole run was measured at), and re-probing git per
#: record could even disagree with itself mid-run.
_GIT_REV: str = "unknown"


def _record(name, config, samples_us, wall_s, ops):
    return BenchRecord(
        bench=name,
        config=config,
        ops_per_sec=ops / wall_s if wall_s > 0 else None,
        p50_us=percentile(samples_us, 50) if samples_us else None,
        p99_us=percentile(samples_us, 99) if samples_us else None,
        wall_s=round(wall_s, 4),
        git_rev=_GIT_REV,
    )


async def bench_get_rtt(ops: int, keys: int, seed: int) -> BenchRecord:
    """Sequential single-key GET round-trips on one connection."""
    server, task = await _started_server(seed)
    client = MemcacheClient(port=server.port, pool_size=1)
    await _populate(client, keys, seed)
    samples = []
    started = time.perf_counter()
    for i in range(ops):
        t0 = time.perf_counter()
        await client.get(key_name(0, i % keys))
        samples.append((time.perf_counter() - t0) * 1e6)
    wall = time.perf_counter() - started
    await client.close()
    server.begin_drain()
    await task
    return _record(
        "server_get_rtt", {"ops": ops, "keys": keys, "seed": seed}, samples,
        wall, ops,
    )


async def bench_set_rtt(ops: int, keys: int, seed: int) -> BenchRecord:
    """Sequential SET round-trips on one connection."""
    server, task = await _started_server(seed)
    client = MemcacheClient(port=server.port, pool_size=1)
    samples = []
    started = time.perf_counter()
    for i in range(ops):
        key_id = i % keys
        value = expected_value(seed, 0, key_id, 1)
        t0 = time.perf_counter()
        await client.set(key_name(0, key_id), value)
        samples.append((time.perf_counter() - t0) * 1e6)
    wall = time.perf_counter() - started
    await client.close()
    server.begin_drain()
    await task
    return _record(
        "server_set_rtt", {"ops": ops, "keys": keys, "seed": seed}, samples,
        wall, ops,
    )


async def _set_rtt_samples(
    ops: int, keys: int, seed: int, journal_dir: str | None
):
    """One SET-RTT measurement pass; returns (samples_us, wall_s)."""
    server, task = await _started_server(seed, journal_dir=journal_dir)
    client = MemcacheClient(port=server.port, pool_size=1)
    samples = []
    started = time.perf_counter()
    for i in range(ops):
        key_id = i % keys
        value = expected_value(seed, 0, key_id, 1)
        t0 = time.perf_counter()
        await client.set(key_name(0, key_id), value)
        samples.append((time.perf_counter() - t0) * 1e6)
    wall = time.perf_counter() - started
    await client.close()
    server.begin_drain()
    await task
    return samples, wall


#: Acceptable journal-on slowdown for SET RTT under fsync=interval.
JOURNAL_OVERHEAD_BUDGET = 1.15


async def bench_set_rtt_journal(ops: int, keys: int, seed: int):
    """SET RTT with the write-ahead journal off vs on (fsync=interval).

    Interleaved best-of-3 so the two configurations see the same machine
    weather; returns (off_record, on_record, overhead_ratio).  The ratio
    compares best-pass p50s — the budget gate in main() enforces
    JOURNAL_OVERHEAD_BUDGET on it.
    """
    import tempfile

    best: dict = {"off": None, "on": None}
    for _round in range(3):
        for mode in ("off", "on"):
            if mode == "on":
                with tempfile.TemporaryDirectory(prefix="zx-bench-wal-") as d:
                    samples, wall = await _set_rtt_samples(ops, keys, seed, d)
            else:
                samples, wall = await _set_rtt_samples(ops, keys, seed, None)
            p50 = percentile(samples, 50)
            if best[mode] is None or p50 < best[mode][0]:
                best[mode] = (p50, samples, wall)
    records = {}
    for mode in ("off", "on"):
        _p50, samples, wall = best[mode]
        records[mode] = _record(
            f"server_set_rtt_journal_{mode}",
            {"ops": ops, "keys": keys, "seed": seed, "rounds": 3,
             "fsync": "interval" if mode == "on" else None},
            samples, wall, ops,
        )
    ratio = best["on"][0] / best["off"][0] if best["off"][0] > 0 else 1.0
    return records["off"], records["on"], ratio


#: Acceptable extra SET-RTT slowdown for streaming to one live replica,
#: relative to the journal alone (the stream rides the journal's append
#: path, so the primary's ack must stay essentially free of it).
REPLICATION_OVERHEAD_BUDGET = 1.15


async def _replicated_samples(ops: int, keys: int, seed: int, journal_dir: str):
    """SET RTT on a primary streaming to one live replica, then GET RTT
    against that replica once it has fully converged.

    The replica runs as a ``cli serve`` subprocess on loopback — its own
    interpreter, exactly like a deployed pair — so the measurement is the
    primary's true streaming overhead, not two servers time-slicing one
    event loop.  Returns (set_samples_us, set_wall_s, get_samples_us,
    get_wall_s).
    """
    from repro.harness import ServeChild

    cache = ShardedZExpander(
        ZExpanderConfig(total_capacity=8 * 1024 * 1024, seed=seed),
        num_shards=2,
    )
    server = CacheServer(
        cache,
        ServerConfig(
            port=0, journal_dir=journal_dir, fsync="interval", repl_port=0
        ),
    )
    await server.start()
    task = asyncio.create_task(server.run())
    replica = ServeChild(
        [
            "--port", "0",
            "--seed", str(seed),
            "--capacity", str(8 * 1024 * 1024),
            "--shards", "2",
            "--role", "replica",
            "--primary-host", "127.0.0.1",
            "--primary-port", str(server.repl_source.port),
            "--stale-grace", "0.4",
            "--max-lag-bytes", str(1 << 20),
            "--repl-silence-timeout", "2.0",
            "--read-timeout", "10.0",
            "--drain-deadline", "10.0",
        ]
    )
    await replica.start()

    client = MemcacheClient(port=server.port, pool_size=1)
    samples = []
    started = time.perf_counter()
    for i in range(ops):
        key_id = i % keys
        value = expected_value(seed, 0, key_id, 1)
        t0 = time.perf_counter()
        await client.set(key_name(0, key_id), value)
        samples.append((time.perf_counter() - t0) * 1e6)
    wall = time.perf_counter() - started
    await client.close()

    # Let the replica fully converge, then time reads against it.
    reader = MemcacheClient(port=replica.port, pool_size=1)
    deadline = time.perf_counter() + 30.0
    while time.perf_counter() < deadline:
        stats = await reader.stats()
        if (
            stats.get("replication_connected") == "1"
            and stats.get("replication_lag_bytes") == "0"
        ):
            break
        await asyncio.sleep(0.02)
    get_samples = []
    get_started = time.perf_counter()
    for i in range(ops):
        t0 = time.perf_counter()
        await reader.get(key_name(0, i % keys))
        get_samples.append((time.perf_counter() - t0) * 1e6)
    get_wall = time.perf_counter() - get_started
    await reader.close()

    await replica.drain()
    server.begin_drain()
    await task
    return samples, wall, get_samples, get_wall


async def bench_set_rtt_replicated(ops: int, keys: int, seed: int):
    """SET RTT: journal alone vs journal + one live streaming replica.

    Interleaved best-of-3 (same discipline as bench_set_rtt_journal) so
    both configurations see the same machine weather.  Returns
    (journal_record, replicated_record, replica_get_record, ratio) where
    ratio compares best-pass p50s — main() gates it against
    REPLICATION_OVERHEAD_BUDGET.  Also times converged-replica GET RTT,
    the replicated-read path a failover client actually uses.
    """
    import tempfile

    best: dict = {"off": None, "on": None}
    best_get = None
    for _round in range(3):
        for mode in ("off", "on"):
            with tempfile.TemporaryDirectory(prefix="zx-bench-repl-") as d:
                if mode == "off":
                    samples, wall = await _set_rtt_samples(ops, keys, seed, d)
                    get_samples = None
                else:
                    samples, wall, get_samples, get_wall = (
                        await _replicated_samples(ops, keys, seed, d)
                    )
            p50 = percentile(samples, 50)
            if best[mode] is None or p50 < best[mode][0]:
                best[mode] = (p50, samples, wall)
            if get_samples:
                get_p50 = percentile(get_samples, 50)
                if best_get is None or get_p50 < best_get[0]:
                    best_get = (get_p50, get_samples, get_wall)
    records = {}
    for mode, replicas in (("off", 0), ("on", 1)):
        _p50, samples, wall = best[mode]
        records[mode] = _record(
            f"server_set_rtt_repl_{mode}",
            {"ops": ops, "keys": keys, "seed": seed, "rounds": 3,
             "fsync": "interval", "replicas": replicas},
            samples, wall, ops,
        )
    _get_p50, get_samples, get_wall = best_get
    get_record = _record(
        "server_replica_get_rtt",
        {"ops": ops, "keys": keys, "seed": seed, "rounds": 3, "replicas": 1},
        get_samples, get_wall, ops,
    )
    ratio = best["on"][0] / best["off"][0] if best["off"][0] > 0 else 1.0
    return records["off"], records["on"], get_record, ratio


#: 1 µs – 10 s in microseconds, 9 buckets per decade: fine enough that
#: interpolated p50/p99 track the raw-sample percentiles closely.
_RTT_BOUNDS = log_buckets(1.0, 1e7, per_decade=9)


async def bench_pooled_throughput(
    ops: int, keys: int, seed: int, workers: int = 8
) -> BenchRecord:
    """Concurrent GETs through one pooled client (the deployment shape).

    Each worker keeps its own latency histogram (no cross-task sharing
    mid-flight); the per-worker snapshots merge element-wise through
    :func:`merge_snapshots`, and p50/p99 come from the merged buckets —
    previously this bench reported ``p50_us: None``/``p99_us: None``.
    """
    server, task = await _started_server(seed)
    client = MemcacheClient(port=server.port, pool_size=4)
    await _populate(client, keys, seed)
    per_worker = ops // workers

    async def worker(worker_id: int):
        hist = Histogram(f"worker{worker_id}_rtt_us", bounds=_RTT_BOUNDS)
        for i in range(per_worker):
            t0 = time.perf_counter()
            await client.get(key_name(0, (worker_id * per_worker + i) % keys))
            hist.observe((time.perf_counter() - t0) * 1e6)
        return {
            "pooled_get_rtt_us": {
                "count": hist.count,
                "sum": hist.sum,
                "bounds": list(hist.bounds),
                "counts": list(hist.counts),
            }
        }

    started = time.perf_counter()
    snapshots = await asyncio.gather(*(worker(w) for w in range(workers)))
    wall = time.perf_counter() - started
    await client.close()
    server.begin_drain()
    await task
    merged = merge_snapshots(snapshots)["pooled_get_rtt_us"]
    rtt = Histogram("pooled_get_rtt_us", bounds=merged["bounds"])
    rtt.counts = list(merged["counts"])
    rtt._count = merged["count"]
    rtt._sum = merged["sum"]
    return BenchRecord(
        bench="server_pooled_throughput",
        config={"ops": per_worker * workers, "keys": keys, "seed": seed,
                "workers": workers, "pool_size": 4,
                "latency_source": "merged-worker-histograms"},
        ops_per_sec=(per_worker * workers) / wall if wall > 0 else None,
        p50_us=rtt.percentile(50),
        p99_us=rtt.percentile(99),
        wall_s=round(wall, 4),
        git_rev=_GIT_REV,
    )


async def bench_multiget_batch(
    ops: int, keys: int, seed: int, batch: int = 16
) -> BenchRecord:
    """Batched multi-GET: ``batch`` keys per request round-trip."""
    server, task = await _started_server(seed)
    client = MemcacheClient(port=server.port, pool_size=1)
    await _populate(client, keys, seed)
    rounds = max(1, ops // batch)
    samples = []
    started = time.perf_counter()
    for i in range(rounds):
        names = [key_name(0, (i * batch + j) % keys) for j in range(batch)]
        t0 = time.perf_counter()
        await client.get_many(names)
        samples.append((time.perf_counter() - t0) * 1e6)
    wall = time.perf_counter() - started
    await client.close()
    server.begin_drain()
    await task
    return _record(
        "server_multiget_batch",
        {"ops": rounds * batch, "keys": keys, "seed": seed, "batch": batch},
        samples, wall, rounds * batch,
    )


async def bench_multiget_pipelined(
    ops: int, keys: int, seed: int, batch: int = 16
) -> BenchRecord:
    """Per-key pipelined baseline: ``batch`` single-key GETs in one write.

    Every command takes its own parse, admission and cache lookup; the
    replies share the read's one socket write.  This is the denominator
    of the multiget-gate speedup and stays recorded so regressions
    against the native batch path show up in the bench history.
    """
    server, task = await _started_server(seed)
    client = MemcacheClient(port=server.port, pool_size=1)
    await _populate(client, keys, seed)
    await client.close()
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    rounds = max(1, ops // batch)
    samples = []
    started = time.perf_counter()
    for i in range(rounds):
        burst = b"".join(
            b"get " + key_name(0, (i * batch + j) % keys) + b"\r\n"
            for j in range(batch)
        )
        t0 = time.perf_counter()
        writer.write(burst)
        await writer.drain()
        ends = 0
        while ends < batch:
            line = await reader.readline()
            if not line:
                raise ConnectionError("server closed mid-burst")
            if line == b"END\r\n":
                ends += 1
        samples.append((time.perf_counter() - t0) * 1e6)
    wall = time.perf_counter() - started
    writer.close()
    await writer.wait_closed()
    server.begin_drain()
    await task
    return _record(
        "server_multiget_pipelined",
        {"ops": rounds * batch, "keys": keys, "seed": seed, "batch": batch},
        samples, wall, rounds * batch,
    )


async def bench_cluster_multiget(
    ops: int, keys: int, seed: int, nodes: int = 3, batch: int = 16
) -> BenchRecord:
    """Ring-routed multi-GET over a real 3-process cluster.

    Each batch fans out into per-node multigets issued concurrently, so
    the interesting comparison is against ``server_multiget_batch`` (the
    single-node baseline with the same batch size): the cluster pays one
    round-trip to the *slowest* involved node per batch plus routing
    overhead.  Recorded, not gated — the ratio depends on core count.
    """
    import tempfile

    from repro.cluster.client import ClusterClient
    from repro.cluster.procs import ClusterConfig, ClusterSupervisor

    with tempfile.TemporaryDirectory(prefix="zx-bench-cluster-") as workdir:
        supervisor = ClusterSupervisor(
            ClusterConfig(
                nodes=nodes, seed=seed, workdir=workdir, fsync="interval"
            )
        )
        addresses = await supervisor.start()
        client = ClusterClient(addresses, pool_size=2)
        try:
            for key_id in range(keys):
                await client.set(
                    key_name(0, key_id), expected_value(seed, 0, key_id, 1)
                )
            rounds = max(1, ops // batch)
            samples = []
            started = time.perf_counter()
            for i in range(rounds):
                names = [
                    key_name(0, (i * batch + j) % keys) for j in range(batch)
                ]
                t0 = time.perf_counter()
                await client.get_many(names)
                samples.append((time.perf_counter() - t0) * 1e6)
            wall = time.perf_counter() - started
        finally:
            await client.close()
            await supervisor.stop()
            await supervisor.terminate()
    return _record(
        "cluster_get_many",
        {"ops": rounds * batch, "keys": keys, "seed": seed, "batch": batch,
         "nodes": nodes},
        samples, wall, rounds * batch,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="bench")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_server.json"), metavar="PATH"
    )
    args = parser.parse_args(argv)
    scale = SCALES[args.scale]
    global _GIT_REV
    _GIT_REV = git_revision(REPO_ROOT)

    async def run_all():
        records = []
        for bench in (
            bench_get_rtt,
            bench_set_rtt,
            bench_pooled_throughput,
            bench_multiget_batch,
            bench_multiget_pipelined,
            bench_cluster_multiget,
        ):
            record = await bench(scale["ops"], scale["keys"], args.seed)
            records.append(record)
            rtt = (
                f" p50={record.p50_us:.0f}us p99={record.p99_us:.0f}us"
                if record.p50_us is not None
                else ""
            )
            print(
                f"{record.bench}: {record.ops_per_sec:,.0f} ops/s"
                f"{rtt} ({record.wall_s:.2f}s)"
            )
        off, on, ratio = await bench_set_rtt_journal(
            scale["ops"], scale["keys"], args.seed
        )
        records.extend([off, on])
        print(
            f"{on.bench}: p50={on.p50_us:.0f}us vs {off.p50_us:.0f}us off "
            f"— overhead {ratio:.3f}x (budget {JOURNAL_OVERHEAD_BUDGET}x)"
        )
        repl_off, repl_on, replica_get, repl_ratio = (
            await bench_set_rtt_replicated(scale["ops"], scale["keys"], args.seed)
        )
        records.extend([repl_off, repl_on, replica_get])
        print(
            f"{repl_on.bench}: p50={repl_on.p50_us:.0f}us vs "
            f"{repl_off.p50_us:.0f}us journal-only — overhead "
            f"{repl_ratio:.3f}x (budget {REPLICATION_OVERHEAD_BUDGET}x)"
        )
        print(
            f"{replica_get.bench}: {replica_get.ops_per_sec:,.0f} ops/s "
            f"p50={replica_get.p50_us:.0f}us p99={replica_get.p99_us:.0f}us"
        )
        return records, ratio, repl_ratio

    records, ratio, repl_ratio = asyncio.run(run_all())
    merged = append_records(records, Path(args.out))
    print(
        f"wrote {len(records)} records to {args.out} "
        f"({len(merged)} total after merge)"
    )
    failed = False
    if ratio > JOURNAL_OVERHEAD_BUDGET:
        print(
            f"FAIL: journal-on SET RTT {ratio:.3f}x exceeds the "
            f"{JOURNAL_OVERHEAD_BUDGET}x budget",
            file=sys.stderr,
        )
        failed = True
    if repl_ratio > REPLICATION_OVERHEAD_BUDGET:
        print(
            f"FAIL: replicated SET RTT {repl_ratio:.3f}x exceeds the "
            f"{REPLICATION_OVERHEAD_BUDGET}x budget over journal-only",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
