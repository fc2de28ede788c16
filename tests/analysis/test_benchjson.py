"""Tests for the wall-clock benchmark record schema."""

import json

import pytest

import subprocess

from repro.analysis.benchjson import (
    BenchRecord,
    append_records,
    git_revision,
    load_records,
    percentile,
    write_records,
)


class TestPercentile:
    def test_median_of_odd_set(self):
        assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0

    def test_interpolates(self):
        assert percentile([0.0, 10.0], 50.0) == 5.0

    def test_extremes(self):
        samples = list(range(101))
        assert percentile(samples, 0.0) == 0.0
        assert percentile(samples, 100.0) == 100.0
        assert percentile(samples, 99.0) == 99.0

    def test_single_sample(self):
        assert percentile([7.5], 99.0) == 7.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class TestRecords:
    def test_round_trip(self, tmp_path):
        records = [
            BenchRecord(
                bench="replay_etc_mzx",
                config={"workload": "ETC", "num_keys": 3000},
                ops_per_sec=29490.4,
                p50_us=12.1,
                p99_us=410.6,
                wall_s=2.03,
                git_rev="abc1234",
            ),
            BenchRecord(bench="cli_run_all", wall_s=120.5),
        ]
        path = tmp_path / "BENCH_wallclock.json"
        write_records(records, path)
        assert load_records(path) == records

    def test_schema_keys_on_disk(self, tmp_path):
        path = tmp_path / "bench.json"
        write_records([BenchRecord(bench="b", wall_s=1.0)], path)
        payload = json.loads(path.read_text())
        assert set(payload[0]) == {
            "bench",
            "config",
            "ops_per_sec",
            "p50_us",
            "p99_us",
            "wall_s",
            "git_rev",
        }

    def test_estimator_fields_are_optional(self, tmp_path):
        """A row written before the estimator's fields existed loads, and
        rewriting it adds nothing; a reduced record round-trips them."""
        path = tmp_path / "bench.json"
        old_row = {
            "bench": "replay_etc_mzx",
            "config": {"num_keys": 3000},
            "ops_per_sec": 29490.4,
            "p50_us": 12.1,
            "p99_us": 410.6,
            "wall_s": 2.03,
            "git_rev": "e520c75-dirty",
        }
        path.write_text(json.dumps([old_row]))
        (old,) = load_records(path)
        assert (old.median_round, old.rounds_within_10pct, old.unresolved) == (
            None, None, None,
        )
        reduced = BenchRecord(
            bench="zzone_fastpath_speedup",
            wall_s=1.9,
            median_round=2.0,
            rounds_within_10pct=3,
            unresolved=False,
        )
        append_records([reduced], path)
        assert load_records(path) == [old, reduced]
        on_disk = json.loads(path.read_text())
        assert on_disk[0] == old_row
        assert on_disk[1]["unresolved"] is False

    def test_non_list_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_records(path)


def _rec(bench="replay_etc_mzx", keys=3000, ops=1000.0, rev="aaa1111"):
    return BenchRecord(
        bench=bench,
        config={"workload": "ETC", "num_keys": keys},
        ops_per_sec=ops,
        wall_s=1.0,
        git_rev=rev,
    )


class TestAppendRecords:
    def test_creates_missing_file(self, tmp_path):
        path = tmp_path / "BENCH_wallclock.json"
        merged = append_records([_rec()], path)
        assert merged == [_rec()]
        assert load_records(path) == [_rec()]

    def test_same_identity_is_replaced_not_duplicated(self, tmp_path):
        """Re-running a bench at the same rev updates its row in place."""
        path = tmp_path / "BENCH_wallclock.json"
        append_records([_rec(ops=1000.0)], path)
        merged = append_records([_rec(ops=2000.0)], path)
        assert len(merged) == 1
        assert merged[0].ops_per_sec == 2000.0
        assert load_records(path) == merged

    def test_other_revisions_are_kept(self, tmp_path):
        """Records measured at older revs stay as history; the dedupe key
        is (bench, config, git_rev), so only the same-rev row is replaced."""
        path = tmp_path / "BENCH_wallclock.json"
        append_records([_rec(rev="aaa1111", ops=1000.0)], path)
        merged = append_records([_rec(rev="bbb2222", ops=3000.0)], path)
        assert len(merged) == 2
        assert {r.git_rev for r in merged} == {"aaa1111", "bbb2222"}

    def test_distinct_configs_coexist(self, tmp_path):
        path = tmp_path / "BENCH_wallclock.json"
        append_records([_rec(keys=3000)], path)
        merged = append_records([_rec(keys=30000)], path)
        assert len(merged) == 2


class TestGitRevision:
    def test_of_this_repo(self):
        rev = git_revision()
        assert rev == "unknown" or len(rev) >= 7

    def test_fallback_outside_git(self, tmp_path):
        assert git_revision(tmp_path) == "unknown"

    def test_dirty_worktree_gets_suffix(self, tmp_path):
        """A record measured against uncommitted code must say so."""
        git = ["git", "-C", str(tmp_path)]
        env_id = [
            "-c", "user.email=bench@example.com",
            "-c", "user.name=bench",
        ]
        try:
            subprocess.run(
                ["git", "init", "-q", str(tmp_path)],
                check=True, capture_output=True,
            )
            (tmp_path / "f.txt").write_text("one\n")
            subprocess.run(git + ["add", "f.txt"], check=True,
                           capture_output=True)
            subprocess.run(git + env_id + ["commit", "-q", "-m", "x"],
                           check=True, capture_output=True)
        except (OSError, subprocess.CalledProcessError):
            pytest.skip("git unavailable")
        clean = git_revision(tmp_path)
        assert clean != "unknown" and not clean.endswith("-dirty")
        (tmp_path / "f.txt").write_text("two\n")
        assert git_revision(tmp_path) == clean + "-dirty"
