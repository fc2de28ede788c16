#!/usr/bin/env python
"""CI smoke for the observability layer.

Two gates:

1. **Golden exposition** — a short seeded ETC replay with the registry
   bound renders ``to_prometheus(include_timing=False)`` byte-identically
   to ``benchmarks/results/metrics_smoke.prom``.  Timing metrics are
   excluded, so everything left is a pure function of the request
   sequence; any drift means cache behaviour (not just formatting)
   changed.  Regenerate deliberately with ``--update``.
2. **Overhead budget** — replay throughput with metrics enabled must
   stay within ``--budget`` (default 5 %) of the metrics-off loop,
   interleaved best-of-N so machine warmup hits both sides equally.

Exit 0 on success, 1 on any failure.
"""

from __future__ import annotations

import argparse
import difflib
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.common.clock import VirtualClock
from repro.core import ZExpander, ZExpanderConfig, replay_trace
from repro.experiments.common import (
    Scale,
    base_size_of,
    build_trace,
    build_value_source,
)
from repro.metrics import MetricsRegistry

GOLDEN = REPO_ROOT / "benchmarks" / "results" / "metrics_smoke.prom"
SCALE = Scale(num_keys=1500, num_requests=20_000, seed=42)
_REQUEST_RATE = 50_000.0


def _build(scale: Scale):
    clock = VirtualClock()
    config = ZExpanderConfig(
        total_capacity=int(base_size_of("ETC", scale) * 2),
        nzone_fraction=0.5,
        adaptive=False,
        marker_interval_seconds=0.5,
        seed=scale.seed,
        append_region_bytes=0,
    )
    return ZExpander(config, clock=clock), clock


def run_exposition(scale: Scale) -> str:
    """One seeded replay; returns the timing-free Prometheus text."""
    trace = build_trace("ETC", scale)
    values = build_value_source("ETC", trace, seed=scale.seed)
    cache, clock = _build(scale)
    registry = MetricsRegistry()
    cache.bind_metrics(registry)
    replay_trace(
        cache,
        trace,
        values,
        clock=clock,
        request_rate=_REQUEST_RATE,
        registry=registry,
    )
    return registry.to_prometheus(include_timing=False)


def check_golden(update: bool) -> bool:
    text = run_exposition(SCALE)
    if update:
        GOLDEN.write_text(text)
        print(f"wrote golden snapshot: {GOLDEN} ({len(text.splitlines())} lines)")
        return True
    if not GOLDEN.exists():
        print(f"FAIL: golden file missing: {GOLDEN} (run with --update)")
        return False
    golden = GOLDEN.read_text()
    if text == golden:
        print(f"golden exposition OK ({len(text.splitlines())} lines)")
        return True
    print("FAIL: exposition drifted from golden snapshot:")
    diff = difflib.unified_diff(
        golden.splitlines(), text.splitlines(),
        fromfile="golden", tofile="current", lineterm="", n=1,
    )
    for line in list(diff)[:40]:
        print(f"  {line}")
    return False


def check_overhead(budget: float, rounds: int) -> bool:
    trace = build_trace("ETC", SCALE)
    values = build_value_source("ETC", trace, seed=SCALE.seed)
    timer = time.perf_counter
    walls = {False: float("inf"), True: float("inf")}
    for _ in range(rounds):
        for metrics_on in (False, True):
            cache, clock = _build(SCALE)
            registry = MetricsRegistry() if metrics_on else None
            if metrics_on:
                cache.bind_metrics(registry)
            started = timer()
            replay_trace(
                cache,
                trace,
                values,
                clock=clock,
                request_rate=_REQUEST_RATE,
                registry=registry,
            )
            walls[metrics_on] = min(walls[metrics_on], timer() - started)
    overhead = walls[True] / walls[False] - 1.0
    verdict = "OK" if overhead <= budget else "FAIL"
    print(
        f"metrics overhead {verdict}: {overhead:+.1%} "
        f"(off {walls[False]:.2f}s, on {walls[True]:.2f}s, "
        f"budget {budget:.0%})"
    )
    return overhead <= budget


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true", help="regenerate the golden file"
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=0.05,
        help="max metrics-on overhead fraction (default 0.05)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=3,
        help="interleaved timing rounds per mode (default 3)",
    )
    parser.add_argument(
        "--skip-overhead",
        action="store_true",
        help="only check the golden exposition",
    )
    args = parser.parse_args(argv)
    ok = check_golden(args.update)
    if not args.update and not args.skip_overhead:
        ok = check_overhead(args.budget, args.rounds) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
