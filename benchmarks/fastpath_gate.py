#!/usr/bin/env python
"""CI gate for the Z-zone fast path (``zzone-fastpath`` job step).

Two gates, both over the seeded ETC replay:

1. **Speedup floor** — the served default (``ZExpanderConfig``'s own
   append region, promotion by postponed removal; "on") must beat the
   paper's region 0 ("off") on replay throughput by at least ``--floor``
   (default 1.15x: twenty-one interleaved best-of-3 measurements on the
   builder's box at PR 16 read 1.18-1.68x, median 1.35x, twenty of them
   at 1.29x or more; with PR 5's 1024 B region + 128-block container
   cache, which nobody served, the same replay read 1.94-2.28x against
   a 1.5x floor).  Interleaved best-of-N walls so machine warmup and
   frequency drift hit both configurations equally.
2. **Baseline drift** — the region-0 replay must stay within
   ``--budget`` (default 5 %) of the newest committed
   ``replay_etc_mzx_fastpath_off`` record in ``BENCH_wallclock.json``.
   Raw wall-clock numbers are not comparable across machines, so the
   committed number is first rescaled by a machine-speed anchor: the
   ratio of the ``replay_etc_fastpath_anchor`` (memcached) bench
   measured *now* to its committed record — both sides measured by the
   same interleaved best-of-N loop in ``bench_fastpath()``.  Only slowdowns fail
   the gate (an unrelated speedup of the default path is not a
   regression); the signed drift is always printed.

Exit 0 on success, 1 on any failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from bench_wallclock import (
    _REQUEST_RATE,
    SCALES,
    _build_memcached,
    _build_mzx,
)
from repro.analysis.benchjson import load_records
from repro.core import replay_trace
from repro.experiments.common import (
    Scale,
    base_size_of,
    build_trace,
    build_value_source,
)

BENCH_JSON = REPO_ROOT / "BENCH_wallclock.json"


def _replay_wall(cache, clock, trace, values) -> float:
    started = time.perf_counter()
    replay_trace(cache, trace, values, clock=clock, request_rate=_REQUEST_RATE)
    return time.perf_counter() - started


def measure(scale: Scale, rounds: int) -> dict:
    """Interleaved best-of-``rounds`` walls for off / on / anchor."""
    trace = build_trace("ETC", scale)
    values = build_value_source("ETC", trace, seed=scale.seed)
    capacity = int(base_size_of("ETC", scale) * 2)
    walls = {"off": float("inf"), "on": float("inf"), "anchor": float("inf")}
    for _ in range(rounds):
        for mode in ("off", "on", "anchor"):
            if mode == "anchor":
                cache, clock = _build_memcached(capacity)
            else:
                cache, clock = _build_mzx(
                    scale, trace, capacity, fastpath=(mode == "on")
                )
            walls[mode] = min(walls[mode], _replay_wall(cache, clock, trace, values))
    return {mode: len(trace) / wall for mode, wall in walls.items()}


def _committed_ops(bench: str, num_keys: int) -> float:
    """Newest committed ops/s for ``bench`` at this scale (0.0 if absent)."""
    if not BENCH_JSON.exists():
        return 0.0
    best = 0.0
    for record in load_records(BENCH_JSON):
        # Appended in measurement order, so the last match is the newest.
        if (
            record.bench == bench
            and record.config.get("num_keys") == num_keys
            and record.ops_per_sec
        ):
            best = record.ops_per_sec
    return best


def check_speedup(ops: dict, floor: float) -> bool:
    speedup = ops["on"] / ops["off"]
    verdict = "OK" if speedup >= floor else "FAIL"
    print(
        f"zzone fastpath speedup {verdict}: {speedup:.2f}x "
        f"(off {ops['off']:,.0f} ops/s, on {ops['on']:,.0f} ops/s, "
        f"floor {floor:.2f}x)"
    )
    return speedup >= floor


def check_baseline_drift(ops: dict, scale: Scale, budget: float) -> bool:
    # Compare against the records bench_fastpath() measured with this
    # gate's exact methodology (interleaved best-of-3, fresh cache per
    # round) — the single-shot replay_etc_mzx/replay_etc_memcached rows
    # are not methodology-comparable and would turn noise into failures.
    committed_mzx = _committed_ops(
        "replay_etc_mzx_fastpath_off", scale.num_keys
    )
    committed_anchor = _committed_ops(
        "replay_etc_fastpath_anchor", scale.num_keys
    )
    if not committed_mzx or not committed_anchor:
        print(
            "baseline drift SKIP: no committed replay_etc_mzx_fastpath_off "
            f"/ replay_etc_fastpath_anchor records at "
            f"num_keys={scale.num_keys}"
        )
        return True
    machine_ratio = ops["anchor"] / committed_anchor
    expected = committed_mzx * machine_ratio
    drift = ops["off"] / expected - 1.0
    ok = drift >= -budget
    verdict = "OK" if ok else "FAIL"
    print(
        f"baseline drift {verdict}: {drift:+.1%} vs committed "
        f"(measured {ops['off']:,.0f} ops/s, expected {expected:,.0f} "
        f"after x{machine_ratio:.2f} anchor rescale, budget -{budget:.0%})"
    )
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="bench")
    parser.add_argument(
        "--floor",
        type=float,
        default=1.15,
        help="min served-default / region-0 speedup (default 1.15)",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=0.05,
        help="max region-0 slowdown vs committed baseline (default 0.05)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=3,
        help="interleaved timing rounds per mode (default 3)",
    )
    args = parser.parse_args(argv)
    scale = SCALES[args.scale]
    ops = measure(scale, args.rounds)
    ok = check_speedup(ops, args.floor)
    ok = check_baseline_drift(ops, scale, args.budget) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
