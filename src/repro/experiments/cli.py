"""Command-line runner for the paper's experiments.

Usage::

    python -m repro.experiments.cli list
    python -m repro.experiments.cli run fig05 tab02
    python -m repro.experiments.cli run all --keys 8000 --requests 160000
    python -m repro.experiments.cli chaos --seed 7
    python -m repro.experiments.cli chaos --server --seed 7
    python -m repro.experiments.cli chaos --crash --fsync always --seed 7
    python -m repro.experiments.cli chaos --replication --seed 7
    python -m repro.experiments.cli chaos --cluster --nodes 3 --seed 7
    python -m repro.experiments.cli serve --port 11311 --snapshot cache.snap
    python -m repro.experiments.cli serve --port 11311 --journal-dir ./wal
    python -m repro.experiments.cli serve --port 11311 --journal-dir ./wal --repl-port 11411
    python -m repro.experiments.cli serve --port 11312 --role replica --primary-port 11411
    python -m repro.experiments.cli promote --port 11312 --catch-up ./wal
    python -m repro.experiments.cli loadgen --port 11311 --requests 4000

Each experiment prints the same rows/series the paper reports; scale
flags shrink runs for quick looks (committed bench outputs use the
default scale).  ``chaos`` replays a workload under a seeded fault plan
and exits nonzero if the cache crashed, broke an invariant, missed an
injected corruption, or degraded disproportionately; ``chaos --server``
runs the same discipline over a real TCP serving path (wire faults,
drain, snapshot, warm restart, overload shedding); ``chaos --crash``
SIGKILLs a journalled server child at seeded points and verifies that
recovery never returns wrong bytes and never loses acknowledged writes
under ``--fsync always``; ``chaos --replication`` runs a primary/replica
pair under load while partitioning/stalling/resetting the replication
link, forcing snapshot resyncs, killing the primary, and promoting the
replica — judging wrong bytes, stale reads beyond the advertised lag
bound, and acked-write loss after promotion as fatal; ``chaos
--cluster`` SIGKILLs nodes of a consistent-hash cluster under
ring-routed load, verifying the outage stays confined to the dead
node's arc and that a restarted node resumes exactly its old keys.
``cluster`` spawns N independent serve children (disjoint ports and
journal dirs, one derived seed each) behind one hash ring.  ``serve`` runs
the memcached-protocol server (SIGTERM drains gracefully;
``--journal-dir`` arms crash-consistent durability; ``--repl-port``
streams the journal to replicas; ``--role replica`` follows a primary);
``promote`` flips a running replica to primary; ``loadgen`` drives a
server with seeded, self-verifying traffic.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from typing import Dict

from repro.experiments.common import BENCH_SCALE, Scale

#: Short name -> (module, description).
EXPERIMENTS: Dict[str, tuple] = {
    "fig01": ("repro.experiments.fig01_access_cdf", "access CDF / long-tail coverage"),
    "fig02": ("repro.experiments.fig02_miss_curves", "miss ratios: LRU/LIRS/ARC vs size"),
    "tab01": ("repro.experiments.tab01_miss_removal", "misses removed vs LRU-X reference"),
    "tab02": ("repro.experiments.tab02_compression", "compression ratio vs container size"),
    "fig05": ("repro.experiments.fig05_memcached_miss", "miss ratio: memcached vs M-zExpander"),
    "fig06": ("repro.experiments.fig06_cached_bytes", "uncompressed KV bytes cached"),
    "fig07": ("repro.experiments.fig07_memory_breakdown", "memory breakdown of 3 organisations"),
    "fig08": ("repro.experiments.fig08_memcached_tput", "single-thread throughput (memcached)"),
    "fig09": ("repro.experiments.fig09_memcached_threads", "throughput vs threads (memcached)"),
    "fig10": ("repro.experiments.fig10_hp_tput", "throughput vs threads (H-prototypes)"),
    "fig11": ("repro.experiments.fig11_latency_cdf", "request-time CDFs at 24 threads"),
    "fig12": ("repro.experiments.fig12_miss_rate", "miss rate (misses/second)"),
    "fig13": ("repro.experiments.fig13_bloom", "Content-Filter throughput gains"),
    "fig14": ("repro.experiments.fig14_threshold", "N-zone target threshold sweep"),
    "fig15": ("repro.experiments.fig15_adaptation", "adaptive allocation timeline"),
    "fig16": ("repro.experiments.fig16_adaptation_perf", "adaptation miss/throughput"),
    "abl-block": ("repro.experiments.abl_block_size", "ablation: block capacity sweep"),
    "abl-index": ("repro.experiments.abl_index", "ablation: trie vs per-item indexes"),
    "abl-sweep": ("repro.experiments.abl_zreplacement", "ablation: Access-Filter sweep"),
    "abl-promo": ("repro.experiments.abl_promotion", "ablation: promotion policies"),
    "abl-codec": ("repro.experiments.abl_codec", "ablation: Z-zone codec choice"),
    "abl-hzx": ("repro.experiments.abl_hzx_capacity", "ablation: H-zX miss advantage vs size"),
}

#: Experiments whose run() takes no Scale (they build their own inputs).
SCALELESS = {"tab02", "fig07", "abl-block", "abl-index", "abl-codec"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the zExpander paper's tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")
    run_parser = subparsers.add_parser("run", help="run one or more experiments")
    run_parser.add_argument(
        "names",
        nargs="+",
        help="experiment names (see 'list'), or 'all'",
    )
    run_parser.add_argument("--keys", type=int, default=BENCH_SCALE.num_keys)
    run_parser.add_argument(
        "--requests", type=int, default=BENCH_SCALE.num_requests
    )
    run_parser.add_argument("--seed", type=int, default=BENCH_SCALE.seed)
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent experiments/replays "
        "(1 = serial in-process; results are identical at any value)",
    )
    chaos_parser = subparsers.add_parser(
        "chaos",
        help="fault-injection replay: assert the cache survives and degrades gracefully",
    )
    chaos_parser.add_argument(
        "--workload", default="ETC", help="workload shape (ETC/APP/USR/YCSB)"
    )
    chaos_parser.add_argument("--keys", type=int, default=2_000)
    chaos_parser.add_argument("--requests", type=int, default=40_000)
    chaos_parser.add_argument(
        "--seed", type=int, default=0, help="seeds the trace AND the fault plan"
    )
    chaos_parser.add_argument(
        "--plan",
        default=None,
        metavar="PATH",
        help="JSON fault plan (default: the built-in all-sites mix)",
    )
    chaos_parser.add_argument("--audit-interval", type=int, default=512)
    # The campaigns over real servers; none = the in-process trace replay.
    mode = chaos_parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--server",
        action="store_true",
        help="run the chaos discipline over a real TCP serving path "
        "(wire faults, drain, snapshot, restart, overload shedding)",
    )
    chaos_parser.add_argument(
        "--connections",
        type=int,
        default=4,
        help="concurrent loadgen connections (--server mode only)",
    )
    mode.add_argument(
        "--crash",
        action="store_true",
        help="kill-anywhere durability campaign: SIGKILL a journalled "
        "server child at seeded points under load, restart, and verify "
        "recovery against the loadgen oracle",
    )
    chaos_parser.add_argument(
        "--crash-points",
        type=int,
        default=20,
        help="number of seeded SIGKILL rounds (--crash mode only)",
    )
    chaos_parser.add_argument(
        "--fsync",
        choices=("always", "interval", "never"),
        default="always",
        help="journal fsync policy under test (--crash/--replication modes)",
    )
    mode.add_argument(
        "--replication",
        action="store_true",
        help="primary/replica campaign: partition/stall/reset the "
        "replication link, force snapshot resyncs, kill the primary and "
        "promote the replica, judging staleness and durability",
    )
    chaos_parser.add_argument(
        "--link-points",
        type=int,
        default=10,
        help="seeded link-chaos rounds before the kill/promote rounds "
        "(--replication mode only)",
    )
    mode.add_argument(
        "--cluster",
        action="store_true",
        help="node-kill campaign over a consistent-hash cluster: SIGKILL "
        "a seeded-chosen node under ring-routed load, verify the outage "
        "stays confined to its arc, restart it, and judge recovery and "
        "ring ownership",
    )
    chaos_parser.add_argument(
        "--nodes",
        type=int,
        default=3,
        help="cluster size (--cluster mode only)",
    )
    chaos_parser.add_argument(
        "--kill-points",
        type=int,
        default=4,
        help="seeded node-kill rounds (--cluster mode only)",
    )

    serve_parser = subparsers.add_parser(
        "serve", help="run the memcached-protocol server over a sharded zExpander"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=11311)
    serve_parser.add_argument(
        "--capacity", type=int, default=64 * 1024 * 1024, help="total cache bytes"
    )
    serve_parser.add_argument("--shards", type=int, default=4)
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument(
        "--snapshot",
        default=None,
        metavar="PATH",
        help="warm-load at start; written crash-safely on graceful drain",
    )
    serve_parser.add_argument("--read-timeout", type=float, default=30.0)
    # Unread, like its field: benchmarks/ledger/traced.py:296 passes it (ROADMAP 2(a)).
    serve_parser.add_argument("--drain-deadline", type=float, default=5.0)
    serve_parser.add_argument("--audit-interval", type=int, default=0)
    serve_parser.add_argument(
        "--clock",
        choices=("tick", "wall"),
        default="tick",
        help="cache clock: deterministic per-command ticks, or wall time "
        "(real TTL semantics)",
    )
    serve_parser.add_argument(
        "--plan",
        default=None,
        metavar="PATH",
        help="JSON fault plan armed on the cache (chaos demos)",
    )
    serve_parser.add_argument(
        "--journal-dir",
        default=None,
        metavar="DIR",
        help="arm crash-consistent durability: write-ahead journal + "
        "checkpoints in DIR, recovered from at start",
    )
    serve_parser.add_argument(
        "--fsync",
        choices=("always", "interval", "never"),
        default="interval",
        help="journal fsync policy (always: zero acked loss on power "
        "cut; interval: bounded window; never: OS-paced)",
    )
    serve_parser.add_argument(
        "--fsync-interval",
        type=float,
        default=0.05,
        help="seconds between fsyncs under --fsync interval",
    )
    serve_parser.add_argument(
        "--journal-segment-bytes",
        type=int,
        default=1 << 20,
        help="journal segment rotation threshold",
    )
    serve_parser.add_argument(
        "--checkpoint-bytes",
        type=int,
        default=4 << 20,
        help="journal bytes between incremental checkpoints",
    )
    serve_parser.add_argument(
        "--scrub-interval",
        type=float,
        default=30.0,
        help="seconds between at-rest integrity scrub passes",
    )
    serve_parser.add_argument(
        "--role",
        choices=("primary", "replica"),
        default="primary",
        help="replica: apply a primary's journal stream and serve reads "
        "only (writes get SERVER_ERROR read-only replica)",
    )
    serve_parser.add_argument(
        "--repl-port",
        type=int,
        default=None,
        metavar="PORT",
        help="listen for replicas here and stream the journal to them "
        "(requires --journal-dir)",
    )
    serve_parser.add_argument(
        "--primary-host",
        default="127.0.0.1",
        help="the primary's host (--role replica)",
    )
    serve_parser.add_argument(
        "--primary-port",
        type=int,
        default=None,
        metavar="PORT",
        help="the primary's --repl-port to follow (required with "
        "--role replica)",
    )
    serve_parser.add_argument(
        "--repl-silence-timeout",
        type=float,
        default=5.0,
        help="seconds of a silent (half-open) replication link before a "
        "replica cuts it and re-dials",
    )
    serve_parser.add_argument(
        "--stale-grace",
        type=float,
        default=1.0,
        help="seconds without primary contact before a replica sheds "
        "every GET",
    )

    cluster_parser = subparsers.add_parser(
        "cluster",
        help="spawn N independent serve children behind one consistent-"
        "hash keyspace (SIGTERM drains the whole fleet)",
    )
    cluster_parser.add_argument("--nodes", type=int, default=3)
    cluster_parser.add_argument("--host", default="127.0.0.1")
    cluster_parser.add_argument("--seed", type=int, default=0)
    cluster_parser.add_argument(
        "--capacity",
        type=int,
        default=64 * 1024 * 1024,
        help="cache bytes per node",
    )
    cluster_parser.add_argument("--shards", type=int, default=4)
    cluster_parser.add_argument(
        "--workdir",
        default=None,
        metavar="DIR",
        help="per-node journal dirs live under DIR/node<i>/ "
        "(default: a fresh temp dir)",
    )
    cluster_parser.add_argument(
        "--fsync",
        choices=("always", "interval", "never"),
        default="interval",
        help="journal fsync policy for every node",
    )

    promote_parser = subparsers.add_parser(
        "promote",
        help="promote a running replica to primary (consensus-free "
        "operator hook)",
    )
    promote_parser.add_argument("--host", default="127.0.0.1")
    promote_parser.add_argument("--port", type=int, default=11311)
    promote_parser.add_argument(
        "--catch-up",
        default="",
        metavar="DIR",
        help="dead primary's journal dir: replay it from the replica's "
        "applied position before taking writes (zero acked loss under "
        "fsync=always)",
    )
    promote_parser.add_argument("--deadline", type=float, default=30.0)

    stats_parser = subparsers.add_parser(
        "stats", help="fetch and render a running server's metrics"
    )
    stats_parser.add_argument("--host", default="127.0.0.1")
    stats_parser.add_argument("--port", type=int, default=11311)
    stats_parser.add_argument("--deadline", type=float, default=2.0)
    stats_parser.add_argument(
        "--format",
        choices=("kv", "json", "prom"),
        default="kv",
        help="kv: 'name value' lines; json: one object; prom: "
        "Prometheus-style exposition of the numeric stats",
    )

    loadgen_parser = subparsers.add_parser(
        "loadgen", help="drive a server with seeded, self-verifying traffic"
    )
    loadgen_parser.add_argument("--host", default="127.0.0.1")
    loadgen_parser.add_argument("--port", type=int, default=11311)
    loadgen_parser.add_argument("--connections", type=int, default=4)
    loadgen_parser.add_argument(
        "--requests", type=int, default=4_000, help="requests per connection"
    )
    loadgen_parser.add_argument(
        "--keys", type=int, default=200, help="key-space size per connection"
    )
    loadgen_parser.add_argument("--seed", type=int, default=0)
    loadgen_parser.add_argument("--deadline", type=float, default=2.0)
    loadgen_parser.add_argument(
        "--plan",
        default=None,
        metavar="PATH",
        help="JSON fault plan; its conn.* sites fire on the client side",
    )
    loadgen_parser.add_argument(
        "--assume-warm",
        action="store_true",
        help="don't flag hits on keys this run never wrote (use against a "
        "restarted/pre-populated server)",
    )
    return parser


def run_experiment(name: str, scale: Scale) -> None:
    module_name, _description = EXPERIMENTS[name]
    module = importlib.import_module(module_name)
    # Monotonic, not wall: an NTP step mid-run would skew (or negate)
    # the reported duration.  Matches experiments/parallel.py.
    started = time.monotonic()
    if name in SCALELESS:
        result = module.run()
    else:
        result = module.run(scale)
    elapsed = time.monotonic() - started
    print(result.table())
    print(f"[{name} finished in {elapsed:.1f}s]\n")


def _load_plan(path):
    """Load a JSON fault plan, or exit code 2 on a bad file."""
    from repro.common.errors import FaultPlanError
    from repro.faults.plan import FaultPlan

    if not path:
        return None
    try:
        return FaultPlan.load(path)
    except OSError as exc:
        print(f"error: cannot read fault plan {path!r}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except (FaultPlanError, ValueError) as exc:
        print(f"error: invalid fault plan {path!r}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def run_chaos_command(args) -> int:
    if args.cluster:
        from repro.cluster.chaos import run_cluster_chaos as run

        rounds = args.kill_points
        particular = dict(
            nodes=args.nodes, kill_points=args.kill_points, fsync=args.fsync
        )
    elif args.replication:
        from repro.server.replchaos import run_replication_chaos as run

        rounds = max(1, args.link_points) + 2  # ... + kill + promote
        particular = dict(link_points=args.link_points, fsync=args.fsync)
    elif args.crash:
        from repro.server.crash import run_crash_chaos as run

        rounds = args.crash_points
        particular = dict(kill_points=args.crash_points, fsync=args.fsync)
    elif args.server:
        from repro.server.chaos import run_server_chaos as run

        rounds = 1
        particular = dict(plan=_load_plan(args.plan))
    else:
        from repro.faults.chaos import run_chaos

        report = run_chaos(
            workload=args.workload,
            num_keys=args.keys,
            num_requests=args.requests,
            seed=args.seed,
            plan=_load_plan(args.plan),
            audit_interval=args.audit_interval,
        )
        print(report.render())
        return 0 if report.ok else 1
    from repro.common.errors import ConfigurationError

    for flag, value in (
        ("--connections", args.connections),
        ("--requests", args.requests),
        ("--keys", args.keys),
    ):
        if value < 1:
            raise ConfigurationError(f"{flag} must be >= 1, got {value}")
    # --requests is the campaign-wide op budget, spread over every round:
    # 'chaos --crash --crash-points 40' does more rounds of the same
    # total work, not 2x the work.  The floors only round a small budget
    # up to one op (or key) per connection.
    report = run(
        seed=args.seed,
        connections=args.connections,
        requests_per_conn=max(
            1, args.requests // (args.connections * max(1, rounds))
        ),
        keys_per_conn=max(1, args.keys // args.connections),
        **particular,
    )
    print(report.render())
    # Timing-dependent observables go to stderr so stdout stays
    # byte-identical across same-seed runs (CI diffs it).
    print(report.render_metrics(), file=sys.stderr)
    return 0 if report.ok else 1


def run_serve_command(args) -> int:
    import asyncio
    import dataclasses
    import signal

    from repro.common.errors import JournalError
    from repro.core.config import ZExpanderConfig
    from repro.core.sharded import ShardedZExpander
    from repro.server import CacheServer, ServerConfig

    plan = _load_plan(args.plan)
    cache = ShardedZExpander(
        ZExpanderConfig(
            total_capacity=args.capacity, seed=args.seed, fault_plan=plan
        ),
        num_shards=args.shards,
    )
    # A serve flag named like a ``ServerConfig`` field sets that field.
    config = ServerConfig(
        snapshot_path=args.snapshot,
        clock_mode=args.clock,
        **{
            field.name: getattr(args, field.name)
            for field in dataclasses.fields(ServerConfig)
            if hasattr(args, field.name)
        },
    )

    async def serve() -> int:
        server = CacheServer(cache, config)
        try:
            await server.start()
        except JournalError as exc:
            # A journal-dir hole (or other unrecoverable damage shape):
            # serving would silently expose a truncated history, so
            # refuse loudly instead.
            print(f"error: {exc}", file=sys.stderr)
            return 2
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, server.begin_drain)
        if server.stats.snapshot_loaded:
            print(
                f"warm start: {server.stats.snapshot_loaded} items restored "
                f"({server.stats.snapshot_skipped} skipped)",
                flush=True,
            )
        if server.durability is not None:
            stats = server.durability.stats
            print(
                f"recovery: checkpoint seq {stats.recovered_checkpoint_seq} "
                f"({stats.recovered_items} items) + "
                f"{stats.replayed_records} journal records replayed "
                f"({stats.torn_tail_records} torn, "
                f"{stats.quarantined_files} quarantined)",
                flush=True,
            )
        if server.repl_source is not None:
            print(
                f"replication: streaming journal to replicas on "
                f"{config.host}:{server.repl_source.port}",
                flush=True,
            )
        if config.role == "replica":
            from repro.replication.replica import MAX_LAG_BYTES

            print(
                f"replica: following {config.primary_host}:"
                f"{config.primary_port} (max lag {MAX_LAG_BYTES} B)",
                flush=True,
            )
        print(
            f"serving memcached protocol on {config.host}:{server.port} "
            f"(shards={args.shards}, capacity={args.capacity}) — "
            "SIGTERM drains gracefully",
            flush=True,
        )
        code = await server.run()
        for incident in server.incidents:
            print(f"incident: {incident}", file=sys.stderr)
        print(
            f"drained: {server.stats.commands} commands served, "
            f"{server.stats.snapshot_written} items snapshotted, exit {code}",
            flush=True,
        )
        return code

    return asyncio.run(serve())


def run_cluster_command(args) -> int:
    import asyncio
    import signal
    import tempfile

    from repro.cluster.procs import ClusterConfig, ClusterSupervisor

    if args.nodes < 1:
        print("error: --nodes must be >= 1", file=sys.stderr)
        return 2
    workdir = args.workdir or tempfile.mkdtemp(prefix="zx-cluster-")
    supervisor = ClusterSupervisor(
        ClusterConfig(
            nodes=args.nodes,
            seed=args.seed,
            workdir=workdir,
            host=args.host,
            serve=dict(
                capacity=args.capacity, shards=args.shards, fsync=args.fsync
            ),
        )
    )

    async def run() -> int:
        try:
            addresses = await supervisor.start()
        except (RuntimeError, OSError) as exc:
            print(f"error: cluster start failed: {exc}", file=sys.stderr)
            await supervisor.terminate()
            return 2
        for node_id in sorted(addresses):
            host, port = addresses[node_id]
            print(f"node {node_id}: {host}:{port}", flush=True)
        print(
            f"cluster up: {args.nodes} nodes, workdir {workdir} — "
            "SIGTERM drains the fleet",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        # Exit early (and loudly) if any child dies underneath us.
        waiters = {
            asyncio.ensure_future(node.proc.wait()): node
            for node in supervisor.nodes
        }

        async def watch_children() -> None:
            done, _pending = await asyncio.wait(
                waiters, return_when=asyncio.FIRST_COMPLETED
            )
            node = waiters[done.pop()]
            print(
                f"error: {node.node_id} exited unexpectedly "
                f"(code {node.proc.returncode})",
                file=sys.stderr,
            )
            stop.set()

        watcher = asyncio.create_task(watch_children())
        await stop.wait()
        watcher.cancel()
        for future in waiters:
            future.cancel()
        codes = await supervisor.stop()
        for node_id in sorted(codes):
            print(f"drained {node_id}: exit {codes[node_id]}", flush=True)
        return 0 if all(code == 0 for code in codes.values()) else 1

    return asyncio.run(run())


def render_stats(stats: Dict[str, str], fmt: str) -> str:
    """Render a ``stats`` reply as kv lines, JSON, or Prometheus text."""
    from repro.server.client import stat_value

    if fmt == "json":
        import json

        typed = {name: stat_value(text) for name, text in stats.items()}
        return json.dumps(typed, indent=2, sort_keys=True)
    if fmt == "prom":
        # prom exposition carries numbers only
        return "\n".join(
            f"repro_{name} {stats[name]}"
            for name in sorted(stats)
            if not isinstance(stat_value(stats[name]), str)
        )
    width = max(len(name) for name in stats) if stats else 0
    return "\n".join(f"{name:<{width}}  {stats[name]}" for name in sorted(stats))


def run_stats_command(args) -> int:
    import asyncio

    from repro.server.client import MemcacheClient

    async def fetch():
        client = MemcacheClient(
            host=args.host, port=args.port, pool_size=1, deadline=args.deadline
        )
        try:
            return await client.stats()
        finally:
            await client.close()

    try:
        stats = asyncio.run(fetch())
    except ConnectionRefusedError:
        print(
            f"error: no server at {args.host}:{args.port} (start one with "
            "'serve')",
            file=sys.stderr,
        )
        return 2
    print(render_stats(stats, args.format))
    return 0


def run_promote_command(args) -> int:
    import asyncio

    from repro.common.errors import ServingError
    from repro.server.client import MemcacheClient

    async def promote():
        client = MemcacheClient(
            host=args.host, port=args.port, pool_size=1, deadline=args.deadline
        )
        try:
            await client.promote(args.catch_up)
        finally:
            await client.close()

    try:
        asyncio.run(promote())
    except ConnectionRefusedError:
        print(
            f"error: no server at {args.host}:{args.port}", file=sys.stderr
        )
        return 2
    except ServingError as exc:
        print(f"error: promote refused: {exc}", file=sys.stderr)
        return 1
    print(f"promoted: {args.host}:{args.port} is now primary", flush=True)
    return 0


def run_loadgen_command(args) -> int:
    import asyncio

    from repro.server.loadgen import READ_MOSTLY, LoadConfig, run_loadgen

    config = LoadConfig(
        host=args.host,
        port=args.port,
        connections=args.connections,
        requests_per_conn=args.requests,
        keys_per_conn=args.keys,
        seed=args.seed,
        plan=_load_plan(args.plan),
        deadline=args.deadline,
        verify_unwritten=not args.assume_warm,
        **READ_MOSTLY,
    )
    report = asyncio.run(run_loadgen(config))
    traffic = report.rounds[0]
    if traffic.failed_ops == traffic.ops_issued:
        # The driver books a refused connection as one failed op and goes
        # on, so a dead port ends as an oracle that learned no key and a
        # sweep with nothing to read: a clean verdict about nothing.
        print(
            f"error: no server at {args.host}:{args.port}: all "
            f"{traffic.ops_issued} requests failed (start one with 'serve')",
            file=sys.stderr,
        )
        return 2
    print(report.render())
    print(report.render_metrics())
    return 0 if report.ok else 1


def main(argv=None) -> int:
    """Run one command; a refused setting is one ``error:`` line, exit 2."""
    from repro.common.errors import ConfigurationError

    args = build_parser().parse_args(argv)
    try:
        return _run_command(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_command(args) -> int:
    if args.command == "chaos":
        return run_chaos_command(args)
    if args.command == "serve":
        return run_serve_command(args)
    if args.command == "cluster":
        return run_cluster_command(args)
    if args.command == "loadgen":
        return run_loadgen_command(args)
    if args.command == "stats":
        return run_stats_command(args)
    if args.command == "promote":
        return run_promote_command(args)
    if args.command == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name, (_module, description) in EXPERIMENTS.items():
            print(f"{name:<{width}}  {description}")
        return 0
    names = list(args.names)
    if names == ["all"]:
        names = list(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("use 'list' to see what is available", file=sys.stderr)
        return 2
    if args.jobs < 1:
        from repro.common.errors import ConfigurationError

        raise ConfigurationError(f"--jobs must be >= 1, got {args.jobs}")
    scale = Scale(num_keys=args.keys, num_requests=args.requests, seed=args.seed)
    if args.jobs > 1:
        from repro.experiments.parallel import run_experiments

        run_experiments(names, scale, args.jobs)
        return 0
    for name in names:
        run_experiment(name, scale)
    return 0


if __name__ == "__main__":  # pragma: no cover
    # No subcommand speaks TLS.  A None entry makes ``import ssl`` raise
    # ImportError, so asyncio takes its no-SSL branch and libssl/libcrypto
    # are never mapped (≈ 5 MiB per serve child, DESIGN §9.3).  Program
    # entry only: in-process callers of main() keep a working ssl.
    sys.modules.setdefault("ssl", None)
    sys.exit(main())
