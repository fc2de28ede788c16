"""The timing kit: the one place under ``benchmarks/`` (outside ``ledger/``)
where a clock is read.

A **measurement** is a zero-argument callable that builds fresh state,
runs, and returns a :class:`Timed` — either one wall over a whole run
(:func:`timed`) or a wall plus one sample per operation (:func:`sampled`,
:func:`sampled_async`).  :func:`interleaved` runs named measurements
round-robin (a, b, c, a, b, c, ...) so warm-up and frequency drift land on
every mode alike, and reduces each mode's rounds with the ledger's own
estimator (``best_of_rounds`` in ``benchmarks/ledger/run.py``, imported,
not re-typed): the **best** round is the number — on a small shared box
interference only ever adds time — and beside it the median round and how
many rounds came within 10 % of the best, fewer than three of three being
``unresolved``: weather, not a number.  :func:`record` writes an estimate
down as a ``BenchRecord``.  DESIGN.md §16 has the method.
"""

from __future__ import annotations

import importlib.util
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Awaitable, Callable, Dict, Iterable, Iterator, List, Optional

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.benchjson import BenchRecord, percentile

#: Rounds per mode unless a scale says otherwise.
ROUNDS = 3


def _ledger_estimator():
    """``best_of_rounds`` from the ledger's ``run.py``, loaded by path: the
    directory is not a package, and nothing may be written into it."""
    keep = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(
            "ledger_run", REPO_ROOT / "benchmarks" / "ledger" / "run.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module.best_of_rounds


best_of_rounds = _ledger_estimator()


@dataclass
class Timed:
    """One measurement: ``ops`` operations took ``wall_s`` seconds."""

    ops: int
    wall_s: float = 0.0
    #: One entry per operation, µs; empty when only the wall was taken.
    samples_us: List[float] = field(default_factory=list)
    #: Whatever the caller wants back from the best round (a cache whose
    #: counters it records, a second measurement taken on the same state).
    carry: object = None

    @property
    def p50_us(self) -> Optional[float]:
        return percentile(self.samples_us, 50.0) if self.samples_us else None

    @property
    def p99_us(self) -> Optional[float]:
        return percentile(self.samples_us, 99.0) if self.samples_us else None


@contextmanager
def timed(ops: int) -> Iterator[Timed]:
    """Time the ``with`` body as one run of ``ops`` operations."""
    run = Timed(ops)
    started = perf_counter()
    yield run
    run.wall_s = perf_counter() - started


def sampled(operations: Iterable[Callable[[], object]]) -> Timed:
    """Call each of ``operations``, timing every call.

    What the iterable does between two of them (advance a virtual clock,
    build the next key) is inside the wall and outside the samples.
    """
    samples: List[float] = []
    started = perf_counter()
    for operation in operations:
        t0 = perf_counter()
        operation()
        samples.append((perf_counter() - t0) * 1e6)
    wall = perf_counter() - started
    return Timed(len(samples), wall, samples)


async def sampled_async(operations: Iterable[Callable[[], Awaitable]]) -> Timed:
    """:func:`sampled` for operations that return an awaitable."""
    samples: List[float] = []
    started = perf_counter()
    for operation in operations:
        t0 = perf_counter()
        await operation()
        samples.append((perf_counter() - t0) * 1e6)
    wall = perf_counter() - started
    return Timed(len(samples), wall, samples)


@dataclass
class Estimate:
    """A mode's rounds, reduced: the best round and how far to trust it."""

    runs: List[Timed]
    best: Timed
    #: ``best``'s value of whatever the rounds were compared by.
    value: float
    median_round: float
    rounds_within_10pct: int
    unresolved: bool


def estimate(runs: List[Timed], by: str = "wall_s") -> Estimate:
    """Reduce one mode's rounds with the ledger's estimator.

    ``by`` names the :class:`Timed` attribute rounds are compared by —
    ``wall_s`` or ``p50_us``, lower is better either way.
    """
    values = [getattr(run, by) for run in runs]
    reduced = best_of_rounds(values, "lower")
    return Estimate(
        runs=runs,
        best=runs[values.index(reduced["value"])],
        value=reduced["value"],
        median_round=reduced["median_round"],
        rounds_within_10pct=reduced["rounds_within_10pct"],
        unresolved=reduced["unresolved"],
    )


def interleaved(
    modes: Dict[str, Callable[[], Timed]], rounds: int = ROUNDS, by: str = "wall_s"
) -> Dict[str, Estimate]:
    """Run every mode once per round, round-robin; one :func:`estimate` each."""
    taken: Dict[str, List[Timed]] = {name: [] for name in modes}
    for _ in range(rounds):
        for name, measure in modes.items():
            taken[name].append(measure())
    return {name: estimate(runs, by) for name, runs in taken.items()}


def record(bench: str, config: dict, reduced: Estimate) -> BenchRecord:
    """``reduced`` as the ``BENCH_*.json`` row for ``bench`` (the script
    stamps every row of a run with one ``git_rev`` before writing)."""
    best = reduced.best
    return BenchRecord(
        bench=bench,
        config={**config, "rounds": len(reduced.runs)},
        ops_per_sec=best.ops / best.wall_s,
        p50_us=best.p50_us,
        p99_us=best.p99_us,
        wall_s=best.wall_s,
        median_round=reduced.median_round,
        rounds_within_10pct=reduced.rounds_within_10pct,
        unresolved=reduced.unresolved,
    )


def describe(row: BenchRecord) -> str:
    """One stdout line for a measured row."""
    latency = (
        f"  p50 {row.p50_us:.1f} µs  p99 {row.p99_us:.1f} µs"
        if row.p50_us is not None
        else ""
    )
    weather = "  UNRESOLVED" if row.unresolved else ""
    return (
        f"{row.bench}: {row.ops_per_sec:,.0f} ops/s{latency}  "
        f"({row.wall_s:.2f} s best of {row.config['rounds']}, "
        f"{row.rounds_within_10pct} within 10 %){weather}"
    )


def verdict(
    what: str,
    ratio: float,
    *rows: BenchRecord,
    floor: Optional[float] = None,
    budget: Optional[float] = None,
) -> bool:
    """Print one gate's verdict: ``ratio`` (of best rounds) must reach
    ``floor`` or stay within ``budget``.  ``rows`` are the records it
    compared; the line says so when one of them is weather."""
    ok = ratio >= floor if floor is not None else ratio <= budget
    bound = f"floor {floor:.2f}x" if floor is not None else f"budget {budget:.2f}x"
    weather = any(row.unresolved for row in rows)
    print(
        f"{'OK' if ok else 'FAIL'}: {what} {ratio:.3f}x ({bound})"
        + ("  [a side is unresolved: re-run before believing it]" if weather else "")
    )
    return ok
