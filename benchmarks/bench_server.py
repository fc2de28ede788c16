#!/usr/bin/env python
"""Serving-layer wall-clock benchmark -> ``BENCH_server.json``.

Times what the ledger (``benchmarks/ledger/``) does not: the cost of the
journal and of a live replica on a SET's round trip, a converged
replica's GET, native multi-key GET against pipelined singles, pooled
concurrent GETs, and ring-routed multi-GET over a 3-process cluster.
(Plain GET/SET round trips are the ledger's ``hot_get`` / ``set_churn``,
measured from outside without ``MemcacheClient`` in the way.)  Run it
like the other wall-clock harness::

    PYTHONPATH=src python benchmarks/bench_server.py --scale smoke
    PYTHONPATH=src python benchmarks/bench_server.py              # bench scale

Every record is the best of interleaved rounds taken through
``benchmarks/timing.py`` (DESIGN.md §16) and lands in
``BENCH_server.json`` at the repo root (override with ``--out``).
Three gates are checked on the records the run just wrote — the budgets
are the constants below — and any red one makes the exit status 1.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import sys
import tempfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional

from timing import (
    REPO_ROOT,
    ROUNDS,
    Estimate,
    Timed,
    describe,
    estimate,
    interleaved,
    record,
    sampled_async,
    timed,
    verdict,
)

from repro.analysis.benchjson import BenchRecord, append_records, git_revision
from repro.core.config import ZExpanderConfig
from repro.core.sharded import ShardedZExpander
from repro.core.zexpander import ZExpander
from repro.harness import expected_value, key_name
from repro.server.client import MemcacheClient
from repro.server.server import CacheServer, ServerConfig


@dataclass(frozen=True)
class Scale:
    ops: int
    keys: int
    rounds: int = ROUNDS


SCALES = {
    "smoke": Scale(ops=2_000, keys=400),
    "bench": Scale(ops=10_000, keys=1_000),
}
SEED = 42
CAPACITY = 8 * 1024 * 1024
WORKERS, POOL_SIZE, NODES = 8, 4, 3

#: Acceptable journal-on slowdown of SET p50 under fsync=interval.
JOURNAL_OVERHEAD_BUDGET = 1.15
#: Acceptable extra SET-p50 slowdown for streaming to one live replica,
#: relative to the journal alone (the stream rides the journal's append
#: path, so the primary's ack must stay essentially free of it).
REPLICATION_OVERHEAD_BUDGET = 1.15
#: A native multi-key ``get`` must beat the same keys as pipelined
#: single-key GETs by this much.  Thin by design: all replies of one read
#: share one socket write either way, so the batch only saves 15 of 16
#: parses and admissions plus the shared Z-zone decodes — measured
#: 1.2-1.3x (DESIGN.md §13.4 has the history).
MULTIGET_SPEEDUP_FLOOR = 1.10
#: The multiget cache: small, with a low N-zone fraction, so most resident
#: items live in compressed Z-zone blocks and a batch has decodes to share.
MULTIGET_CAPACITY = 192 * 1024
MULTIGET_NZONE_FRACTION = 0.1
MULTIGET_KEYS = 600
BATCH = 16


@contextlib.asynccontextmanager
async def _serving(cache=None, **config):
    """A started ``CacheServer`` (the 2-shard, 8 MiB fleet unless handed a
    cache), drained on exit."""
    if cache is None:
        cache = ShardedZExpander(
            ZExpanderConfig(total_capacity=CAPACITY, seed=SEED), num_shards=2
        )
    server = CacheServer(cache, ServerConfig(port=0, **config))
    await server.start()
    task = asyncio.create_task(server.run())
    try:
        yield server
    finally:
        server.begin_drain()
        await task


async def _populate(client, keys: int) -> None:
    for key_id in range(keys):
        await client.set(key_name(0, key_id), expected_value(SEED, 0, key_id, 1))


def _sets(client: MemcacheClient, scale: Scale):
    for i in range(scale.ops):
        key_id = i % scale.keys
        yield partial(
            client.set, key_name(0, key_id), expected_value(SEED, 0, key_id, 1)
        )


async def _set_rtt(scale: Scale, journal: bool) -> Timed:
    """Sequential SET round-trips on one connection, volatile or journalled."""
    with tempfile.TemporaryDirectory(prefix="zx-bench-wal-") as journal_dir:
        config = {"journal_dir": journal_dir, "fsync": "interval"} if journal else {}
        async with _serving(**config) as server:
            client = MemcacheClient(port=server.port, pool_size=1)
            run = await sampled_async(_sets(client, scale))
            await client.close()
    return run


async def _converged(replica: MemcacheClient) -> None:
    while True:
        stats = await replica.stats()
        if (
            stats.get("replication_connected") == "1"
            and stats.get("replication_lag_bytes") == "0"
        ):
            return
        await asyncio.sleep(0.02)


async def _set_rtt_replicated(scale: Scale) -> Timed:
    """SET RTT on a journalled primary streaming to one live replica;
    carries the GET RTT against that replica once it has converged (the
    replicated-read path a failover client actually uses).

    The replica runs as a ``cli serve`` subprocess on loopback — its own
    interpreter, exactly like a deployed pair — so the measurement is the
    primary's true streaming overhead, not two servers time-slicing one
    event loop.
    """
    from repro.harness import CHILD_TIMEOUTS, ServeChild

    with tempfile.TemporaryDirectory(prefix="zx-bench-repl-") as journal_dir:
        async with _serving(
            journal_dir=journal_dir, fsync="interval", repl_port=0
        ) as server:
            replica = ServeChild(
                {
                    "port": 0,
                    "seed": SEED,
                    "capacity": CAPACITY,
                    "shards": 2,
                    "role": "replica",
                    "primary_port": server.repl_source.port,
                    "stale_grace": 0.4,
                    "repl_silence_timeout": 2.0,
                    **CHILD_TIMEOUTS,
                }
            )
            await replica.start()
            try:
                client = MemcacheClient(port=server.port, pool_size=1)
                run = await sampled_async(_sets(client, scale))
                await client.close()
                reader = MemcacheClient(port=replica.port, pool_size=1)
                await asyncio.wait_for(_converged(reader), 30.0)
                run.carry = await sampled_async(
                    partial(reader.get, key_name(0, i % scale.keys))
                    for i in range(scale.ops)
                )
                await reader.close()
            finally:
                await replica.kill()
    return run


def _batch_names(round_index: int) -> List[bytes]:
    """16 keys per round: 14 of the resident population (strided so they
    spread across trie blocks) + 2 never-set keys (miss accounting)."""
    names = [
        key_name(0, (round_index * 7 + j * 41) % MULTIGET_KEYS)
        for j in range(BATCH - 2)
    ]
    names.append(key_name(9, round_index % MULTIGET_KEYS))
    names.append(key_name(9, (round_index + 1) % MULTIGET_KEYS))
    return names


async def _multiget(scale: Scale, pipelined: bool) -> Timed:
    """``BATCH`` keys per round trip on the Z-zone-heavy cache: as one
    native multi-key ``get`` (the one request shape that reaches the
    cache-level ``get_many``), or as ``BATCH`` single-key GETs in one
    write — every command its own parse, admission and cache lookup, the
    replies sharing the read's one socket write."""
    cache = ZExpander(
        ZExpanderConfig(
            total_capacity=MULTIGET_CAPACITY,
            nzone_fraction=MULTIGET_NZONE_FRACTION,
            seed=SEED,
        )
    )
    rounds = max(1, scale.ops // BATCH)
    async with _serving(cache) as server:
        client = MemcacheClient(port=server.port, pool_size=1)
        await _populate(client, MULTIGET_KEYS)
        if pipelined:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)

            async def burst(names):
                writer.write(b"".join(b"get " + name + b"\r\n" for name in names))
                await writer.drain()
                ends = 0
                while ends < len(names):
                    line = await reader.readline()
                    if not line:
                        raise ConnectionError("server closed mid-burst")
                    ends += line == b"END\r\n"

            operation = burst
        else:
            operation = client.get_many
        run = await sampled_async(
            partial(operation, _batch_names(i)) for i in range(rounds)
        )
        if pipelined:
            writer.close()
            await writer.wait_closed()
        await client.close()
    run.ops = rounds * BATCH  # keys, not round trips
    return run


async def _pooled_gets(scale: Scale) -> Timed:
    async with _serving() as server:
        client = MemcacheClient(port=server.port, pool_size=POOL_SIZE)
        await _populate(client, scale.keys)
        share = scale.ops // WORKERS

        def gets(worker: int):
            for i in range(worker * share, (worker + 1) * share):
                yield partial(client.get, key_name(0, i % scale.keys))

        with timed(share * WORKERS) as run:
            each = await asyncio.gather(
                *(sampled_async(gets(worker)) for worker in range(WORKERS))
            )
        run.samples_us = [us for worker in each for us in worker.samples_us]
        await client.close()
    return run


async def _cluster_get_many(scale: Scale) -> Timed:
    from repro.cluster.client import ClusterClient
    from repro.cluster.procs import ClusterConfig, ClusterSupervisor

    rounds = max(1, scale.ops // BATCH)
    with tempfile.TemporaryDirectory(prefix="zx-bench-cluster-") as workdir:
        supervisor = ClusterSupervisor(
            ClusterConfig(
                nodes=NODES,
                seed=SEED,
                workdir=workdir,
                serve={"capacity": CAPACITY, "shards": 2, "fsync": "interval"},
            )
        )
        client = ClusterClient(await supervisor.start(), pool_size=2)
        try:
            await _populate(client, scale.keys)
            run = await sampled_async(
                partial(
                    client.get_many,
                    [key_name(0, (i * BATCH + j) % scale.keys) for j in range(BATCH)],
                )
                for i in range(rounds)
            )
        finally:
            await client.close()
            await supervisor.stop()
            await supervisor.terminate()
    run.ops = rounds * BATCH
    return run


#: What distinguishes each record's configuration, beside the scale.
SHAPES = {
    "server_pooled_throughput": {"workers": WORKERS, "pool_size": POOL_SIZE},
    "cluster_get_many": {"batch": BATCH, "nodes": NODES},
    "server_multiget_batch": {
        "batch": BATCH,
        "keys": MULTIGET_KEYS,
        "capacity": MULTIGET_CAPACITY,
        "nzone_fraction": MULTIGET_NZONE_FRACTION,
    },
    "server_set_rtt_journal_off": {"fsync": None, "replicas": 0},
    "server_set_rtt_journal_on": {"fsync": "interval", "replicas": 0},
    "server_set_rtt_repl_on": {"fsync": "interval", "replicas": 1},
    "server_replica_get_rtt": {"replicas": 1},
}
SHAPES["server_multiget_pipelined"] = SHAPES["server_multiget_batch"]


def measure(scale: Scale) -> Dict[str, Estimate]:
    """Three interleaves; every measurement runs its own event loop
    against servers it starts and drains itself."""

    def loop(measurement, *args):
        return lambda: asyncio.run(measurement(scale, *args))

    # Two deployment shapes, recorded and not gated (both depend on the
    # core count): concurrent GETs through one pooled client, and
    # ring-routed multi-GET over a real 3-process cluster — each batch
    # fans out into per-node multigets issued concurrently, so it pays one
    # round trip to the *slowest* involved node plus routing.
    estimates = interleaved(
        {
            "server_pooled_throughput": loop(_pooled_gets),
            "cluster_get_many": loop(_cluster_get_many),
        },
        rounds=scale.rounds,
    )
    # Native multi-key GET vs the same keys pipelined, compared by wall.
    estimates.update(
        interleaved(
            {
                "server_multiget_batch": loop(_multiget, False),
                "server_multiget_pipelined": loop(_multiget, True),
            },
            rounds=scale.rounds,
        )
    )
    # SET RTT volatile / journalled / journalled + one replica, compared
    # by p50 in one sitting: both overhead ratios share the journalled
    # middle, which is measured once.
    estimates.update(
        interleaved(
            {
                "server_set_rtt_journal_off": loop(_set_rtt, False),
                "server_set_rtt_journal_on": loop(_set_rtt, True),
                "server_set_rtt_repl_on": loop(_set_rtt_replicated),
            },
            rounds=scale.rounds,
            by="p50_us",
        )
    )
    estimates["server_replica_get_rtt"] = estimate(
        [run.carry for run in estimates["server_set_rtt_repl_on"].runs], by="p50_us"
    )
    return estimates


def check_gates(rows: Dict[str, BenchRecord]) -> bool:
    """The three gates, each on the rows this run just wrote."""
    volatile = rows["server_set_rtt_journal_off"]
    journal = rows["server_set_rtt_journal_on"]
    replicated = rows["server_set_rtt_repl_on"]
    batch = rows["server_multiget_batch"]
    pipelined = rows["server_multiget_pipelined"]
    return all(
        [
            verdict(
                "journal-on SET p50 over volatile",
                journal.p50_us / volatile.p50_us,
                journal, volatile, budget=JOURNAL_OVERHEAD_BUDGET,
            ),
            verdict(
                "replicated SET p50 over journal-only",
                replicated.p50_us / journal.p50_us,
                replicated, journal, budget=REPLICATION_OVERHEAD_BUDGET,
            ),
            verdict(
                "native multiget keys/s over pipelined singles",
                batch.ops_per_sec / pipelined.ops_per_sec,
                batch, pipelined, floor=MULTIGET_SPEEDUP_FLOOR,
            ),
        ]
    )


def main(argv=None, scale: Optional[Scale] = None) -> int:
    """``scale`` handed in directly (the tier-1 smoke test does) replaces
    ``--scale``; such a run is too short to judge, so its gate verdicts
    are printed but do not reach the exit status."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="bench")
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_server.json", metavar="PATH"
    )
    args = parser.parse_args(argv)
    gated = scale is None
    if scale is None:
        scale = SCALES[args.scale]
    git_rev = git_revision(REPO_ROOT)

    records = []
    for bench, reduced in measure(scale).items():
        config = {"ops": reduced.best.ops, "keys": scale.keys, "seed": SEED}
        records.append(record(bench, {**config, **SHAPES[bench]}, reduced))
    for row in records:
        row.git_rev = git_rev
        print(describe(row))
    merged = append_records(records, args.out)
    print(
        f"wrote {len(records)} records to {args.out} "
        f"({len(merged)} total after merge)"
    )
    held = check_gates({row.bench: row for row in records})
    return 0 if held or not gated else 1


if __name__ == "__main__":
    sys.exit(main())
