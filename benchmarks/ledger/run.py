#!/usr/bin/env python3
"""The layered performance ledger: one command, end to end and by layer.

Two ways in, one machinery::

    # the ledger: all four workloads, interleaved rounds, anchored
    python benchmarks/ledger/run.py --seed 7 [--smoke] [--traced] --out results.json

    # the driver contract (BENCHMARK.json): one workload per invocation,
    # last stdout line is one JSON object
    python benchmarks/ledger/run.py --workload hot_get --seed 7 --seconds 15 --trace 0

Every timing is taken over **rounds** and reported as the **best round**
(min for a latency, max for a throughput; p50/p99 are taken within a
round): on a small shared box interference only ever adds time, and the
best of interleaved rounds is the estimator that was shown to repeat.
Beside it the ledger keeps the median round and how many rounds came
within 10 % of the best; fewer than three marks the metric ``unresolved``
— weather, not a number.  See README.md in this directory.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ under src/ or here

import argparse
import bisect
import gzip
import json
import os
import platform
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np

import metrics as M
import procs
import workloads
from driver import Driver, connect, pingpong

FULL = {"rounds": 8, "round_seconds": 3.0, "warmup_ops": 20_000, "window": 40_000,
        "anchor_seconds": 1.0, "traced_ops": 30_000}
SMOKE = {"rounds": 2, "round_seconds": 1.0, "warmup_ops": 2_000, "window": 4_000,
         "anchor_seconds": 0.5, "traced_ops": 6_000}
#: Contract mode cuts ``--seconds`` into rounds this short.  Interference on
#: the box is bimodal — spells of +30-40 % latency lasting 1-4 s, about a
#: third of the time on a bad day — and a contract run cannot spread 3 s
#: rounds over minutes as the ledger does.  A 0.25 s round is either inside
#: a spell or outside it, so the best of sixty is a clean one even when no
#: 3 s round is: over twenty 15 s stretches of one bad five minutes the best
#: 3 s round of ``set_churn``'s SET p50 spread 16 % (253-370 us) and the best
#: 0.25 s round 5 % (242-295).  It holds >= 500 requests on every workload,
#: enough for a p50 over all of them (``req_p50_us``), not for a p99 — and
#: not for a p50 of ``set_churn``'s GETs alone: ~85 a round, and they get
#: dearer as the cache fills, so their best round is one of the first few
#: and a spell over the first second moves it (the driver saw IQR 22-29 %).
CONTRACT_ROUND_SECONDS = 0.25
#: Contract mode sets up again, up to this many times, while the set-ups so
#: far took less than the budget (hot_get: 3 x 2.3 s, set_churn: 2 x 4.3 s,
#: the two 11-13 s ones: once).
SETUP_REPEATS = 3
SETUP_REPEAT_BUDGET_S = 6.0
#: A metric needs this many rounds within 10 % of its best to be a number.
ROUNDS_TO_RESOLVE = 3
OUT_DIR = procs.LEDGER_DIR / "out"


# -- frozen load and contract file ---------------------------------------------


def check_frozen(names) -> None:
    """Refuse to run on a load that is not the recorded one."""
    frozen = json.loads((procs.LEDGER_DIR / "frozen.json").read_text())
    for name in names:
        digest = workloads.Load(name, frozen["seed"]).digest(frozen["frames"])
        if digest != frozen["digests"][name]:
            raise SystemExit(
                f"ledger: load drift on {name}: first {frozen['frames']} frames at "
                f"seed {frozen['seed']} hash to {digest[:16]}…, frozen.json says "
                f"{frozen['digests'][name][:16]}… — the inputs changed, so no "
                "number would compare with the record"
            )


def check_contract_file() -> None:
    """BENCHMARK.json and metrics.py must name the same things."""
    contract = json.loads((procs.REPO_ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in contract["workloads"]] != list(workloads.WORKLOADS):
        problems.append("workloads")
    wanted = {n: {"name": n, "unit": u, "better": b, "bound": bound}
              for n, (u, b, bound) in M.CONTRACT_END_TO_END.items()}
    if {m["name"]: m for m in contract["end_to_end"]} != wanted:
        problems.append("end_to_end")
    wanted = {n: {"name": n, "unit": u, "better": b}
              for n, (u, b, _kind) in M.PER_LAYER.items()}
    if {m["name"]: m for m in contract["per_layer"]} != wanted:
        problems.append("per_layer")
    if problems:
        raise SystemExit(
            "ledger: BENCHMARK.json disagrees with metrics.py on: " + ", ".join(problems)
        )


# -- one live workload ------------------------------------------------------------


def _percentiles(kind: str, latencies: List[float]) -> Dict[str, float]:
    if not latencies:
        return {}
    p50, p99 = np.percentile(np.asarray(latencies) * 1e6, (50, 99))
    return {f"{kind}_p50_us": float(p50), f"{kind}_p99_us": float(p99),
            f"{kind}_samples": len(latencies)}


class Live:
    """One workload on its own ``cli serve`` child: set-up, rounds, wrap-up."""

    def __init__(self, fleet: procs.Fleet, name: str, seed: int, warmup_ops: int) -> None:
        self.name = name
        self.load = workloads.Load(name, seed)
        started = time.perf_counter()
        journal = fleet.journal_dir() if self.load.spec.journal else None
        self.child = fleet.spawn(procs.serve_argv(journal))
        self.driver = Driver(self.load, self.child.port)
        self.driver.populate()
        self.driver.run(ops=warmup_ops)
        #: Spawn to end of warm-up, single shot.
        self.setup_s = time.perf_counter() - started
        self.measured_from = self.driver.stream_pos
        self.warm_stats = self.driver.stats()
        self.rounds: List[Dict[str, float]] = []

    def retire(self) -> None:
        """Drop this server early (the fleet reaps whatever is left)."""
        self.driver.close()
        self.child.kill()

    def round(self, seconds: float) -> None:
        bursts = self.load.spec.bursts
        sample = self.driver.run(seconds=seconds / 2 if bursts else seconds)
        row = {"ops_s": sample.ops / sample.elapsed}
        row.update(_percentiles("get", sample.get_lat))
        row.update(_percentiles("set", sample.set_lat))
        row.update(_percentiles(
            "req", sample.get_lat + sample.set_lat + sample.delete_lat))
        if bursts:
            keys, elapsed = self.driver.run_bursts(seconds=seconds / 2)
            row["burst_ops_s"] = keys / elapsed
        self.rounds.append(row)

    def finish(self, window: int) -> Dict[str, object]:
        """Everything but the round timings; call once, after the last round."""
        driver = self.driver
        rss = self.child.vm_hwm_mb()
        # The miss ratio is a count over a fixed window of the op stream, so
        # it repeats exactly and does not depend on how fast the box was.
        target = self.measured_from + window
        while driver.stream_pos < target:
            driver.run(ops=target - driver.stream_pos)
        positions = sorted(driver.miss_positions)
        misses = bisect.bisect_left(positions, target) - bisect.bisect_left(
            positions, self.measured_from
        )
        gets = self.load.count_gets(self.measured_from, target)
        stats = driver.stats()

        def gained(key: str) -> int:
            return int(stats[key]) - int(self.warm_stats[key])

        hits_n, hits_z = gained("cache_hits_nzone"), gained("cache_hits_zzone")
        return {
            "setup_s": self.setup_s,
            "server_rss_mb": rss,
            "window_gets": gets,
            "window_misses": misses,
            "miss_ratio": misses / gets,
            "attempted": driver.attempted,
            "failed": driver.failed,
            "failures": list(driver.failures),
            "zzone_hit_share": hits_z / (hits_n + hits_z) if hits_n + hits_z else 0.0,
        }


def best_of_rounds(values: List[float], better: str) -> Dict[str, object]:
    """The estimator: best round, plus what tells weather from a number."""
    best = max(values) if better == "higher" else min(values)
    close = sum(1 for value in values if abs(value - best) <= 0.10 * best)
    return {
        "value": best,
        "median_round": statistics.median(values),
        "rounds_within_10pct": close,
        "unresolved": close < min(ROUNDS_TO_RESOLVE, len(values)),
    }


def ledger_end_to_end(live: Live, wrap: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    """The issue's ten metrics, each only where it applies."""
    out: Dict[str, Dict[str, object]] = {}
    for metric in M.LEDGER_END_TO_END:
        if not M.applies(metric, live.name):
            continue
        if metric.timing:
            values = [row[metric.name] for row in live.rounds if metric.name in row]
            if not values:
                continue
            entry = best_of_rounds(values, metric.better)
            samples = metric.name.split("_")[0] + "_samples"
            if samples in live.rounds[0]:
                entry["min_samples_per_round"] = min(row[samples] for row in live.rounds)
        elif metric.name == "failed_share":
            entry = {"value": wrap["failed"] / wrap["attempted"],
                     "failed": wrap["failed"], "attempted": wrap["attempted"]}
        elif metric.name == "miss_ratio":
            entry = {"value": wrap["miss_ratio"], "misses": wrap["window_misses"],
                     "gets": wrap["window_gets"]}
        else:
            entry = {"value": wrap[metric.name]}
        entry["unit"] = metric.unit
        out[metric.name] = entry
    return out


def shape_checks(name: str, end_to_end, wrap) -> Dict[str, object]:
    """Does the workload stress what it says it stresses?"""
    share, miss = wrap["zzone_hit_share"], end_to_end["miss_ratio"]["value"]
    ok = {
        "hot_get": share == 0.0,
        "cold_get": share >= 0.6,
        "etc_mix": 0.05 <= miss <= 0.15,
    }.get(name, True)
    return {"zzone_hit_share": share, "ok": ok}


# -- the anchor ---------------------------------------------------------------------


def _cpu_loop() -> int:
    total = 0
    for i in range(200_000):
        total += i * i
    return total


class Anchor:
    """The same client against the frozen stub, plus a fixed pure-CPU loop."""

    def __init__(self, fleet: procs.Fleet) -> None:
        self.sock = connect(fleet.spawn(procs.stub_argv()).port)
        self.rtt_us: List[float] = []
        self.cpu_ms: List[float] = []

    def round(self, seconds: float) -> None:
        self.rtt_us.append(statistics.median(pingpong(self.sock, seconds)) * 1e6)
        started = time.perf_counter()
        _cpu_loop()
        self.cpu_ms.append((time.perf_counter() - started) * 1e3)

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {
            "anchor_rtt_us": {"best": min(self.rtt_us), "median": statistics.median(self.rtt_us)},
            "anchor_cpu_ms": {"best": min(self.cpu_ms), "median": statistics.median(self.cpu_ms)},
        }


# -- the self-test -------------------------------------------------------------------


def self_test(live: Live) -> bool:
    """A deliberately wrong expected value must come out as a failure."""
    driver = live.driver
    key_id = live.load.populate_order[0]
    right = driver.expected[key_id]
    failed_before = driver.failed
    driver.check_one_get(key_id)
    clean = driver.failed == failed_before
    driver.expected[key_id] = right[:-8] + bytes([right[-8] ^ 1]) + right[-7:]
    driver.check_one_get(key_id)
    caught = driver.failed == failed_before + 1
    driver.expected[key_id] = right
    return clean and caught


# -- modes ----------------------------------------------------------------------------


def _say(workload: str, name: str, value, unit: str, note: str = "") -> None:
    print(f"{workload:10s} {name:42s} {value:>14.6g} {unit:7s} {note}")


def dump_spans(path: Path, spans_by_workload: Dict[str, list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="ascii") as stream:
        json.dump(spans_by_workload, stream)


def traced_section(name: str, seed: int, fleet: procs.Fleet, profile) -> Dict[str, object]:
    import traced

    result = traced.traced_run(
        name, seed, fleet, ops=profile["traced_ops"], warmup_ops=profile["warmup_ops"]
    )
    for metric, (unit, _better, _kind) in M.PER_LAYER.items():
        _say(name, metric, result["metrics"][metric], unit)
    return result


def contract_main(args) -> int:
    """One workload, one JSON line: the BENCHMARK.json protocol."""
    name = args.workload
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"ledger: unknown workload {name!r}")
    check_frozen([name])
    with procs.Fleet() as fleet:
        if args.trace:
            result = traced_section(name, args.seed, fleet, FULL)
            dump_spans(OUT_DIR / f"spans-{name}.json.gz", {name: result.pop("spans")})
            attempted, failed = result["attempted"], result["failed"]
            correct = failed == 0 and result["proxies_transparent"]
            reported = {
                metric: {"value": result["metrics"][metric], "unit": unit}
                for metric, (unit, _better, _kind) in M.PER_LAYER.items()
            }
        else:
            rounds = max(2, round(args.seconds / CONTRACT_ROUND_SECONDS))
            # Set-up is repeated on fresh servers while that is cheap, and
            # the median reported, so one slow spell is not the set-up time.
            setups: List[float] = []
            while True:
                live = Live(fleet, name, args.seed, FULL["warmup_ops"])
                setups.append(live.setup_s)
                if len(setups) == SETUP_REPEATS or sum(setups) >= SETUP_REPEAT_BUDGET_S:
                    break
                live.retire()
            for _ in range(rounds):
                live.round(args.seconds / rounds)
            wrap = live.finish(FULL["window"])
            attempted, failed = wrap["attempted"], wrap["failed"]
            correct = failed == 0
            values = {
                "hit_ratio": 1.0 - wrap["miss_ratio"],
                "server_rss_mb": wrap["server_rss_mb"],
                "setup_s": statistics.median(setups),
            }
            for metric in ("ops_s", "req_p50_us"):
                better = M.CONTRACT_END_TO_END[metric][1]
                values[metric] = best_of_rounds(
                    [row[metric] for row in live.rounds], better
                )["value"]
            reported = {}
            for metric, (unit, _better, _bound) in M.CONTRACT_END_TO_END.items():
                _say(name, metric, values[metric], unit)
                reported[metric] = {"value": values[metric], "unit": unit}
            for failure in wrap["failures"]:
                print(f"{name:10s} FAILED {failure}")
    if fleet.orphans():
        raise SystemExit(f"ledger: orphaned children {fleet.orphans()}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0


def ledger_main(args) -> int:
    """All four workloads, rounds interleaved round-robin, anchored."""
    profile = SMOKE if args.smoke else FULL
    names = list(workloads.WORKLOADS)
    check_frozen(names)
    problems: List[str] = []
    record: Dict[str, object] = {
        "schema": 1,
        "seed": args.seed,
        "mode": "smoke" if args.smoke else "full",
        "profile": profile,
        "workloads": {},
    }
    spans: Dict[str, list] = {}
    with procs.Fleet() as fleet:
        lives = [Live(fleet, name, args.seed, profile["warmup_ops"]) for name in names]
        anchor = Anchor(fleet)
        for _ in range(profile["rounds"]):
            for live in lives:
                live.round(profile["round_seconds"])
            anchor.round(profile["anchor_seconds"])
        record["environment"] = {
            **anchor.summary(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        }
        for live in lives:
            wrap = live.finish(profile["window"])
            end_to_end = ledger_end_to_end(live, wrap)
            entry = {
                "why": live.load.spec.why,
                "end_to_end": end_to_end,
                "shape": shape_checks(live.name, end_to_end, wrap),
                "failures": wrap["failures"],
                "rounds": live.rounds,
            }
            record["workloads"][live.name] = entry
            for metric in M.LEDGER_END_TO_END:
                if not M.applies(metric, live.name):
                    continue
                if metric.name not in end_to_end:
                    problems.append(f"{live.name}: metric {metric.name} missing")
                    continue
                got = end_to_end[metric.name]
                note = ""
                if metric.timing:
                    note = (f"median round {got['median_round']:.6g}, "
                            f"{got['rounds_within_10pct']}/{len(live.rounds)} within 10%"
                            + (" UNRESOLVED" if got["unresolved"] else ""))
                _say(live.name, metric.name, got["value"], metric.unit, note)
            if wrap["failed"]:
                problems.append(f"{live.name}: {wrap['failed']} failed ops: {wrap['failures'][:3]}")
            if not entry["shape"]["ok"]:
                print(f"{live.name:10s} SHAPE: workload no longer stresses what it names "
                      f"(zzone_hit_share {wrap['zzone_hit_share']:.3f}, "
                      f"miss_ratio {wrap['miss_ratio']:.4f})")
        record["self_test_caught_wrong_value"] = self_test(lives[0])
        if not record["self_test_caught_wrong_value"]:
            problems.append("self-test: a wrong expected value was not reported as a failure")
        for name, values in record["environment"].items():
            if name.startswith("anchor_"):
                _say("anchor", name, values["best"], name.rsplit("_", 1)[1],
                     f"median {values['median']:.6g}")

        if args.traced:
            for live in lives:
                result = traced_section(live.name, args.seed, fleet, profile)
                spans[live.name] = result.pop("spans")
                entry = record["workloads"][live.name]
                entry["per_layer"] = result.pop("metrics")
                # The in-process twin mirrors cli serve; same load, same
                # counters after warm-up, or the mirror has drifted.
                twin, child = result["warm_counters"], live.warm_stats
                result["matches_live_server"] = all(
                    twin[mine] == int(child[theirs])
                    for mine, theirs in (
                        ("core.gets", "cache_gets"), ("core.sets", "cache_sets"),
                        ("core.get_hits_nzone", "cache_hits_nzone"),
                        ("core.get_hits_zzone", "cache_hits_zzone"),
                        ("core.get_misses", "cache_misses"),
                    )
                )
                entry["trace"] = result
                missing = set(M.PER_LAYER) - set(entry["per_layer"])
                if missing:
                    problems.append(f"{live.name}: per-layer metrics missing: {sorted(missing)}")
                if result["failed"]:
                    problems.append(f"{live.name}: traced run failed ops: {result['failures'][:3]}")
                if not result["proxies_transparent"]:
                    problems.append(f"{live.name}: proxied cache diverged from its plain twin")
                if not result["matches_live_server"]:
                    problems.append(f"{live.name}: in-process twin diverged from cli serve")
                gap = entry["per_layer"]["trace.layer_sum_gap"]
                # Reported always, enforced on the full 30,000 ops only: a
                # smoke slice is 1,000 requests, too few to hold 10 %.
                if (not args.smoke and live.name in M.LAYER_SUM_WORKLOADS
                        and gap > M.LAYER_SUM_GAP_LIMIT):
                    problems.append(f"{live.name}: layer_sum_gap {gap:.3f} > {M.LAYER_SUM_GAP_LIMIT}")
    orphans = fleet.orphans()
    if orphans:
        problems.append(f"orphaned children: process groups {orphans}")
    record["problems"] = problems
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1) + "\n")
        if spans:
            dump_spans(out.with_suffix(".spans.json.gz"), spans)
    for problem in problems:
        print("PROBLEM", problem)
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--out", help="ledger mode: write the record here")
    parser.add_argument("--smoke", action="store_true",
                        help="ledger mode: 2 rounds x 1 s, 2,000 warm-up ops")
    parser.add_argument("--traced", action="store_true",
                        help="ledger mode: add the in-process traced run")
    parser.add_argument("--workload", help="contract mode: run this workload only")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="contract mode: measured seconds (cut into 0.25 s rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="contract mode: 1 = per-layer metrics from the traced run")
    args = parser.parse_args(argv)
    procs.require_source()
    check_contract_file()
    if args.workload:
        return contract_main(args)
    return ledger_main(args)


if __name__ == "__main__":
    sys.exit(main())
