"""Machine-readable wall-clock benchmark records (``BENCH_*.json``).

The figure benches under ``benchmarks/`` measure *simulated* metrics —
miss ratios, modelled throughput — and write paper-style tables.  This
module is their wall-clock counterpart: a tiny schema for real elapsed
time, so optimisation work has committed before/after numbers.

One record per benchmark::

    {"bench": "replay_etc_mzx",
     "config": {"workload": "ETC", "num_keys": 3000, ...},
     "ops_per_sec": 29490.4,
     "p50_us": 12.1,
     "p99_us": 410.6,
     "wall_s": 2.03,
     "git_rev": "e04240e"}

``ops_per_sec``/``p50_us``/``p99_us`` are null when a bench measures
only end-to-end time (e.g. a whole experiment run).  A record reduced
from interleaved rounds (``benchmarks/timing.py``) is its best round and
also carries ``median_round``, ``rounds_within_10pct`` and
``unresolved`` — what tells a number from weather; a single-shot record
leaves them unset and they stay off the disk, so rows written before
the fields existed load and rewrite unchanged.  Files hold a JSON list of
records; :func:`write_records` / :func:`load_records` round-trip them.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence


@dataclass
class BenchRecord:
    """One wall-clock measurement."""

    bench: str
    config: Dict[str, object] = field(default_factory=dict)
    ops_per_sec: Optional[float] = None
    p50_us: Optional[float] = None
    p99_us: Optional[float] = None
    wall_s: float = 0.0
    git_rev: str = "unknown"
    #: The estimator's fields, in the unit of the value the rounds were
    #: compared by (seconds for a wall, µs for a p50).
    median_round: Optional[float] = None
    rounds_within_10pct: Optional[int] = None
    unresolved: Optional[bool] = None


_ESTIMATOR_FIELDS = ("median_round", "rounds_within_10pct", "unresolved")


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of ``samples`` (``q`` in [0, 100])."""
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


def git_revision(repo_root: Optional[Path] = None) -> str:
    """Short git revision of ``repo_root`` (or this repo); 'unknown' offline.

    A working tree with uncommitted changes gets a ``-dirty`` suffix:
    numbers measured on modified code must not masquerade as numbers for
    the commit they happen to sit on.
    """
    if repo_root is None:
        repo_root = Path(__file__).resolve().parents[3]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    if not rev:
        return "unknown"
    return rev + "-dirty" if status.stdout.strip() else rev


def write_records(records: Sequence[BenchRecord], path: Path) -> None:
    """Write ``records`` as a JSON list (stable key order, trailing newline)."""
    payload = [
        {
            key: value
            for key, value in asdict(record).items()
            if value is not None or key not in _ESTIMATOR_FIELDS
        }
        for record in records
    ]
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _record_key(record: BenchRecord) -> tuple:
    """Identity for dedupe: (bench, canonical config, rev measured at)."""
    return (
        record.bench,
        json.dumps(record.config, sort_keys=True),
        record.git_rev,
    )


def append_records(records: Sequence[BenchRecord], path: Path) -> List[BenchRecord]:
    """Merge ``records`` into the list at ``path`` and rewrite it.

    A new record *replaces* any existing row with the same
    (bench, config, git_rev) identity — re-running a bench at the same
    revision refreshes its numbers instead of silently accumulating
    duplicate rows — while rows measured at other revisions are kept, so
    the file stays an append-only history across commits.  Returns the
    merged list as written.
    """
    path = Path(path)
    existing = load_records(path) if path.exists() else []
    fresh_keys = {_record_key(record) for record in records}
    merged = [
        record for record in existing if _record_key(record) not in fresh_keys
    ]
    merged.extend(records)
    write_records(merged, path)
    return merged


def load_records(path: Path) -> List[BenchRecord]:
    """Load records written by :func:`write_records`."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, list):
        raise ValueError(f"{path}: expected a JSON list of bench records")
    return [BenchRecord(**entry) for entry in payload]
