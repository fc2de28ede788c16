"""Both wall-clock scripts run to the end and write exactly their records.

``bench_wallclock.py --scale smoke`` died with a ``KeyError`` in one bench
for fourteen PRs because only CI ever ran it.  This drives both scripts'
``main`` at a scale of a second or two (handed in directly; the gates are
printed but such a run is too short for them to count) and pins the set
of record names — and that the committed ``BENCH_*.json`` files end in a
run of the scripts as they stand: the same names at their newest
``git_rev``.
"""

import sys
from pathlib import Path

import pytest

from repro.analysis.benchjson import load_records

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks"))

import bench_server  # noqa: E402
import bench_wallclock  # noqa: E402

WALLCLOCK = {
    "replay_etc_mzx",
    "replay_etc_memcached",
    "zzone_set",
    "zzone_get_hit",
    "zzone_get_miss",
    "zzone_sweep",
    "replay_etc_mzx_metrics_off",
    "replay_etc_mzx_metrics_on",
    "metrics_overhead",
    "replay_etc_mzx_fastpath_off",
    "replay_etc_mzx_fastpath_on",
    "replay_etc_fastpath_anchor",
    "zzone_fastpath_speedup",
}
SERVER = {
    "server_pooled_throughput",
    "cluster_get_many",
    "server_multiget_batch",
    "server_multiget_pipelined",
    "server_set_rtt_journal_off",
    "server_set_rtt_journal_on",
    "server_set_rtt_repl_on",
    "server_replica_get_rtt",
}


@pytest.mark.parametrize(
    "script, scale, names, committed",
    [
        (
            bench_wallclock,
            bench_wallclock.Scale(num_keys=1_500, num_requests=2_500, seed=42),
            WALLCLOCK,
            "BENCH_wallclock.json",
        ),
        (
            bench_server,
            bench_server.Scale(ops=64, keys=32, rounds=1),
            SERVER,
            "BENCH_server.json",
        ),
    ],
    ids=["wallclock", "server"],
)
def test_script_writes_exactly_its_records(tmp_path, script, scale, names, committed):
    out = tmp_path / "bench.json"
    assert script.main(["--out", str(out)], scale=scale) == 0
    rows = load_records(out)
    assert sorted(row.bench for row in rows) == sorted(names)
    measured = [row for row in rows if row.ops_per_sec is not None]
    assert all(row.rounds_within_10pct >= 1 for row in measured)
    # BENCH_server.json also collects the ledger's rows, taken by other tooling.
    history = [
        row
        for row in load_records(ROOT / committed)
        if not row.bench.startswith("ledger_")
    ]
    newest = {row.bench for row in history if row.git_rev == history[-1].git_rev}
    assert newest == names, "re-take the committed file with the script as it stands"
