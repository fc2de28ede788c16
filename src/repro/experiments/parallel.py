"""Parallel experiment runner.

``python -m repro.experiments.cli run all --jobs N`` lands here.  Two
levels of fan-out, both over :class:`~concurrent.futures.ProcessPoolExecutor`:

1. The shared replay grids (``mzx_runs`` for figs 5/6/8/9, ``hzx_runs``
   for figs 10/11/12) are warmed first in the parent with cell-level
   parallelism — their (workload x size x system) points are independent
   replays.  Worker processes fork from the parent afterwards, so the
   warmed memo caches are inherited and the figure modules that share a
   grid read it instead of recomputing it per process.
2. The experiments themselves then fan out as whole tasks, each
   returning its rendered table; results print in submission order, so
   the output stream is byte-identical to a serial ``run``.

Determinism: every replay is seeded from (scale, trace) alone — no
worker-local RNG state leaks into results — so any ``--jobs`` value
produces identical experiment rows (pinned by
``tests/experiments/test_parallel.py``).
"""

from __future__ import annotations

import importlib
import time
from concurrent.futures import ProcessPoolExecutor
from typing import List, Sequence, Tuple

from repro.experiments import hzx_runs, mzx_runs
from repro.experiments.common import Scale

#: Experiments that read the memoised mzx / hzx replay grids.
_MZX_GRID_USERS = frozenset({"fig05", "fig06", "fig08", "fig09"})
_HZX_GRID_USERS = frozenset({"fig10", "fig11", "fig12"})


def _experiment_task(name: str, scale: Scale) -> Tuple[str, float]:
    """Run one experiment and return (rendered table, elapsed seconds).

    Module-level so it pickles into worker processes; the import happens
    here because workers may not have the figure module loaded yet.
    """
    from repro.experiments.cli import SCALELESS, EXPERIMENTS

    module = importlib.import_module(EXPERIMENTS[name][0])
    started = time.perf_counter()
    if name in SCALELESS:
        result = module.run()
    else:
        result = module.run(scale)
    return result.table(), time.perf_counter() - started


def warm_shared_grids(names: Sequence[str], scale: Scale, jobs: int) -> None:
    """Pre-compute grids shared by several of ``names``, cells in parallel."""
    wanted = set(names)
    if wanted & _MZX_GRID_USERS:
        mzx_runs.run_grid(scale, jobs=jobs)
    if wanted & _HZX_GRID_USERS:
        hzx_runs.run_mixes(scale, jobs=jobs)


def run_experiments(
    names: Sequence[str], scale: Scale, jobs: int
) -> List[Tuple[str, float]]:
    """Run ``names`` with ``jobs`` workers, printing each table in order.

    Returns (name, elapsed) pairs for harness consumers; the printed
    output matches the serial runner's byte for byte.
    """
    warm_shared_grids(names, scale, jobs)
    timings: List[Tuple[str, float]] = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [
            pool.submit(_experiment_task, name, scale) for name in names
        ]
        for name, future in zip(names, futures):
            table, elapsed = future.result()
            print(table)
            print(f"[{name} finished in {elapsed:.1f}s]\n")
            timings.append((name, elapsed))
    return timings
