#!/usr/bin/env python3
"""Compare two ledger records: ``compare.py a.json b.json``.

One row per (workload, end-to-end metric): both values, the change from
*a* to *b*, the bound and a verdict —

* ``ok``          *b* is no worse than *a* by more than the bound;
* ``worse``       it is (any ``worse`` makes the exit code 1);
* ``unresolved``  a best-of-rounds metric that, on either side, had fewer
                  than three rounds within 10 % of its best: that run was
                  measuring the weather, so the pair says nothing.

The two anchor records are printed under the table: when the anchors
differ by more than a few per cent the boxes (or the days) differ, and a
timing row should be read after rescaling by ``anchor_rtt_us``
(latencies) or ``anchor_cpu_ms`` (CPU-bound throughput), or re-measured.

When both records carry a traced run at the same seed and profile, every
per-layer metric of kind ``count`` must be equal exactly; differences are
listed and also make the exit code 1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics as M


def verdict(metric: M.EndToEnd, a: dict, b: dict) -> str:
    if a.get("unresolved") or b.get("unresolved"):
        return "unresolved"
    worsening = b["value"] - a["value"]
    if metric.better == "higher":
        worsening = -worsening
    allowed = metric.bound if metric.absolute else metric.bound * abs(a["value"])
    return "worse" if worsening > allowed else "ok"


def compare(a: dict, b: dict) -> int:
    bad = 0
    print(f"{'workload':10s} {'metric':14s} {'a':>12s} {'b':>12s} {'change':>9s} "
          f"{'bound':>8s} verdict")
    for name, first in a["workloads"].items():
        second = b["workloads"].get(name)
        if second is None:
            print(f"{name:10s} missing from b")
            bad += 1
            continue
        for metric in M.LEDGER_END_TO_END:
            left = first["end_to_end"].get(metric.name)
            right = second["end_to_end"].get(metric.name)
            if left is None and right is None:
                continue
            if left is None or right is None:
                print(f"{name:10s} {metric.name:14s} present on one side only: worse")
                bad += 1
                continue
            result = verdict(metric, left, right)
            bad += result == "worse"
            if metric.absolute or not left["value"]:
                change = f"{right['value'] - left['value']:+.4f}"
                bound = f"{'+' if metric.better == 'lower' else '-'}{metric.bound:g}"
            else:
                change = f"{(right['value'] / left['value'] - 1) * 100:+.1f}%"
                bound = f"{'+' if metric.better == 'lower' else '-'}{metric.bound * 100:g}%"
            print(f"{name:10s} {metric.name:14s} {left['value']:12.6g} "
                  f"{right['value']:12.6g} {change:>9s} {bound:>8s} {result}")
    for label, record in (("a", a), ("b", b)):
        env = record["environment"]
        print(f"anchor {label}: rtt {env['anchor_rtt_us']['best']:.1f} us "
              f"(median {env['anchor_rtt_us']['median']:.1f}), cpu "
              f"{env['anchor_cpu_ms']['best']:.2f} ms "
              f"(median {env['anchor_cpu_ms']['median']:.2f}), "
              f"python {env['python']}, {env['cpus']} cpus")
    bad += compare_counts(a, b)
    return 1 if bad else 0


def compare_counts(a: dict, b: dict) -> int:
    """Exact agreement of the traced counts (same seed and profile only)."""
    if a["seed"] != b["seed"] or a["profile"] != b["profile"]:
        return 0
    compared = differing = 0
    for name, first in a["workloads"].items():
        second = b["workloads"].get(name, {})
        if "per_layer" not in first or "per_layer" not in second:
            continue
        for metric, (_unit, _better, kind) in M.PER_LAYER.items():
            if kind != "count":
                continue
            compared += 1
            if first["per_layer"][metric] != second["per_layer"][metric]:
                differing += 1
                print(f"{name:10s} {metric} differs: {first['per_layer'][metric]!r} "
                      f"vs {second['per_layer'][metric]!r}")
    if compared:
        print(f"traced counts: {compared} compared, {differing} differ")
    return differing


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    first, second = (json.loads(Path(path).read_text()) for path in argv)
    return compare(first, second)


if __name__ == "__main__":
    sys.exit(main())
