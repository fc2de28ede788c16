#!/usr/bin/env python
"""CI gate for the batched multi-GET path (``bench-smoke`` job).

Three gates over one Z-zone-heavy workload (a cache small enough that
most resident items live compressed in the Z-zone), all on one server:

1. **Value fidelity** — every round's keys are asked for twice: as one
   native multi-key ``get`` (the one request shape that reaches the
   cache-level ``get_many``) and as a pipelined burst of single-key
   GETs in one write (served command by command).  The two must return
   the same values key for key.
2. **Decode sharing** — the server must report
   ``fastpath_container_decodes_saved > 0``: at least one Z-zone block
   decompression was shared across keys of a batch.
3. **Speedup floor** — interleaved best-of-``--rounds``: native
   ``get_many`` must beat the same keys as pipelined per-key GETs by
   ``--floor`` (default 1.1x).  The margin is thin by design: all
   replies of one read share one socket write either way, so the batch
   only saves 15 of 16 parses and admissions plus the shared Z-zone
   decodes — measured 1.27x (DESIGN.md §13.4 has the history).

Deterministic facts (counts, digests, verdicts that cannot vary run to
run) go to **stdout** — CI runs the gate twice and byte-diffs the two
stdouts.  Wall-clock timings and the speedup verdict go to stderr.

Exit 0 on success, 1 on any failure.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.config import ZExpanderConfig
from repro.core.zexpander import ZExpander
from repro.server.client import MemcacheClient
from repro.server.loadgen import expected_value, key_name
from repro.server.server import CacheServer, ServerConfig

#: Small cache + low N-zone fraction: most resident items end up in
#: compressed Z-zone blocks, so batched reads have decodes to share.
CAPACITY = 192 * 1024
NZONE_FRACTION = 0.1
KEYS = 600
BATCH = 16
ROUNDS_CORRECTNESS = 40


async def _started(seed: int):
    cache = ZExpander(
        ZExpanderConfig(
            total_capacity=CAPACITY,
            nzone_fraction=NZONE_FRACTION,
            seed=seed,
        )
    )
    server = CacheServer(cache, ServerConfig(port=0))
    await server.start()
    task = asyncio.create_task(server.run())
    return server, task


async def _populate(port: int, seed: int) -> None:
    client = MemcacheClient(port=port, pool_size=1)
    for key_id in range(KEYS):
        await client.set(key_name(0, key_id), expected_value(seed, 0, key_id, 1))
    await client.close()


def _batch_names(round_index: int):
    """16 keys per round: 14 resident-population keys (strided so they
    spread across trie blocks) + 2 never-set keys (miss accounting)."""
    names = []
    for j in range(BATCH - 2):
        names.append(key_name(0, (round_index * 7 + j * 41) % KEYS))
    names.append(key_name(9, round_index % KEYS))
    names.append(key_name(9, (round_index + 1) % KEYS))
    return names


async def _raw_connect(port: int):
    return await asyncio.open_connection("127.0.0.1", port)


async def _read_replies(reader: asyncio.StreamReader, ends: int) -> bytes:
    """Read raw bytes through ``ends`` END lines (workload values are
    CRLF-free, so line framing is unambiguous)."""
    out = []
    seen = 0
    while seen < ends:
        line = await reader.readline()
        if not line:
            raise ConnectionError("server closed mid-reply")
        out.append(line)
        if line == b"END\r\n":
            seen += 1
    return b"".join(out)


def _parse_values(reply: bytes):
    """(hits, misses-by-END-count irrelevant) -> list of (key, value)."""
    values = []
    lines = reply.split(b"\r\n")
    index = 0
    while index < len(lines):
        line = lines[index]
        if line.startswith(b"VALUE "):
            key = line.split(b" ")[1]
            values.append((key, lines[index + 1]))
            index += 2
            continue
        index += 1
    return values


async def _stats(port: int):
    reader, writer = await _raw_connect(port)
    writer.write(b"stats\r\n")
    await writer.drain()
    out = {}
    while True:
        line = await reader.readline()
        if line == b"END\r\n":
            break
        parts = line.rstrip().split(b" ", 2)
        if len(parts) == 3 and parts[0] == b"STAT":
            out[parts[1].decode()] = parts[2].decode()
    writer.close()
    await writer.wait_closed()
    return out


async def check_fidelity(port: int) -> dict:
    """Ask for every round's keys in both shapes; compare the values."""
    reader, writer = await _raw_connect(port)
    digest = hashlib.sha256()
    hits = misses = 0
    shapes_agree = True
    for round_index in range(ROUNDS_CORRECTNESS):
        names = _batch_names(round_index)
        # Shape (a): one native multi-key get -> one END.
        writer.write(b"get " + b" ".join(names) + b"\r\n")
        await writer.drain()
        values = _parse_values(await _read_replies(reader, 1))
        hits += len(values)
        misses += len(names) - len(values)
        for key, value in values:
            digest.update(key + b"=" + value + b";")
        # Shape (b): the same keys as pipelined single-key GETs in one
        # write -> BATCH ENDs.
        writer.write(b"".join(b"get " + name + b"\r\n" for name in names))
        await writer.drain()
        if _parse_values(await _read_replies(reader, len(names))) != values:
            shapes_agree = False
    writer.close()
    await writer.wait_closed()
    return {
        "hits": hits,
        "misses": misses,
        "digest": digest.hexdigest(),
        "shapes_agree": shapes_agree,
    }


async def measure(port: int, rounds: int) -> dict:
    """Interleaved best-of-``rounds`` walls: native batch vs pipelined."""
    timing_rounds = 120
    walls = {"batch": float("inf"), "pipelined": float("inf")}
    client = MemcacheClient(port=port, pool_size=1)
    reader, writer = await _raw_connect(port)
    for _ in range(rounds):
        started = time.perf_counter()
        for round_index in range(timing_rounds):
            await client.get_many(_batch_names(round_index))
        walls["batch"] = min(walls["batch"], time.perf_counter() - started)
        started = time.perf_counter()
        for round_index in range(timing_rounds):
            names = _batch_names(round_index)
            writer.write(b"".join(b"get " + n + b"\r\n" for n in names))
            await writer.drain()
            await _read_replies(reader, len(names))
        walls["pipelined"] = min(
            walls["pipelined"], time.perf_counter() - started
        )
    await client.close()
    writer.close()
    await writer.wait_closed()
    ops = timing_rounds * BATCH
    return {mode: ops / wall for mode, wall in walls.items()}


async def run(args) -> int:
    server, task = await _started(args.seed)
    ok = True
    try:
        await _populate(server.port, args.seed)
        fidelity = await check_fidelity(server.port)
        stats = await _stats(server.port)
        saved = int(stats.get("fastpath_container_decodes_saved", "0"))
        batches = int(stats.get("cache_get_many_batches", "0"))
        # -- deterministic facts: stdout (CI byte-diffs two runs) ------------
        print(f"keys {KEYS} batch {BATCH} rounds {ROUNDS_CORRECTNESS}")
        print(f"hits {fidelity['hits']} misses {fidelity['misses']}")
        print(f"value digest {fidelity['digest']}")
        print(
            "pipelined singles match native multiget: "
            + ("yes" if fidelity["shapes_agree"] else "NO")
        )
        print(f"get_many batches served {batches}")
        print(f"container decodes saved {saved}")
        if not fidelity["shapes_agree"]:
            print("FAIL: pipelined singles diverge from native multiget",
                  file=sys.stderr)
            ok = False
        if saved <= 0:
            print(
                "FAIL: container_decodes_saved is 0 on a Z-zone-heavy "
                "multiget workload",
                file=sys.stderr,
            )
            ok = False
        if batches != ROUNDS_CORRECTNESS:
            print("FAIL: get_many batches are not one per native multiget",
                  file=sys.stderr)
            ok = False
        # -- wall-clock: stderr only -----------------------------------------
        ops = await measure(server.port, args.rounds)
        speedup = ops["batch"] / ops["pipelined"]
        verdict = "OK" if speedup >= args.floor else "FAIL"
        print(
            f"multiget speedup {verdict}: {speedup:.2f}x "
            f"(pipelined {ops['pipelined']:,.0f} ops/s, batch "
            f"{ops['batch']:,.0f} ops/s, floor {args.floor:.2f}x)",
            file=sys.stderr,
        )
        if speedup < args.floor:
            ok = False
    finally:
        server.begin_drain()
        await task
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--floor",
        type=float,
        default=1.1,
        help="min batch / pipelined speedup (default 1.1)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=3,
        help="interleaved timing rounds per mode (default 3)",
    )
    args = parser.parse_args(argv)
    return asyncio.run(run(args))


if __name__ == "__main__":
    sys.exit(main())
