"""Tests for the experiments CLI."""

import pytest

from repro.experiments.cli import EXPERIMENTS, build_parser, main


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_scaleless_experiment(self, capsys):
        assert main(["run", "tab02"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "finished in" in out

    def test_run_scaled_experiment(self, capsys):
        code = main(
            ["run", "fig01", "--keys", "2000", "--requests", "20000"]
        )
        assert code == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_chaos_runs_one_campaign_at_a_time(self, capsys):
        # "--crash --cluster" used to run the cluster campaign alone.
        with pytest.raises(SystemExit) as refused:
            build_parser().parse_args(["chaos", "--crash", "--cluster"])
        assert refused.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_every_registered_module_importable(self):
        import importlib

        for name, (module_name, _description) in EXPERIMENTS.items():
            module = importlib.import_module(module_name)
            assert hasattr(module, "run"), name
            # ``cli run <name>`` is the one way to run an experiment.
            assert not hasattr(module, "main"), name


class TestRunExperimentClock:
    def test_elapsed_survives_backwards_wall_clock(self, monkeypatch, capsys):
        """A wall-clock step (NTP, DST) must not yield negative durations."""
        import itertools
        import sys
        import time
        import types

        from repro.experiments import cli

        fake = types.ModuleType("repro.experiments.fake_exp")

        class _Result:
            def table(self):
                return "fake table"

        fake.run = lambda scale: _Result()
        fake.main = lambda: 0
        monkeypatch.setitem(sys.modules, "repro.experiments.fake_exp", fake)
        monkeypatch.setitem(
            cli.EXPERIMENTS, "fake", ("repro.experiments.fake_exp", "fake")
        )
        # Wall clock running BACKWARDS: 1e9, 1e9 - 100, 1e9 - 200, ...
        backwards = itertools.count(0)
        monkeypatch.setattr(
            time, "time", lambda: 1e9 - 100.0 * next(backwards)
        )
        cli.run_experiment("fake", scale=None)
        out = capsys.readouterr().out
        assert "fake table" in out
        elapsed = float(out.split("finished in ")[1].split("s]")[0])
        assert elapsed >= 0.0


class TestRenderStats:
    STATS = {"curr_items": "12", "hit_rate": "0.75", "version": "repro/1.0"}

    def test_kv_is_sorted_and_aligned(self):
        from repro.experiments.cli import render_stats

        out = render_stats(self.STATS, "kv")
        lines = out.splitlines()
        assert [line.split()[0] for line in lines] == sorted(self.STATS)
        assert lines[0].startswith("curr_items")

    def test_json_types_values(self):
        import json

        from repro.experiments.cli import render_stats

        data = json.loads(render_stats(self.STATS, "json"))
        assert data["curr_items"] == 12
        assert data["hit_rate"] == 0.75
        assert data["version"] == "repro/1.0"

    def test_prom_numeric_only(self):
        from repro.experiments.cli import render_stats

        out = render_stats(self.STATS, "prom")
        assert "repro_curr_items 12" in out
        assert "repro_hit_rate 0.75" in out
        assert "version" not in out

    def test_fastpath_counters_render_in_every_format(self):
        import json

        from repro.experiments.cli import render_stats

        stats = {
            "fastpath_staged_puts": "41",
            "fastpath_staging_flushes": "3",
            "fastpath_container_cache_hits": "17",
            "fastpath_container_decodes_saved": "2048",
        }
        kv = render_stats(stats, "kv")
        assert "fastpath_staged_puts" in kv and " 41" in kv
        data = json.loads(render_stats(stats, "json"))
        assert data["fastpath_container_decodes_saved"] == 2048
        prom = render_stats(stats, "prom")
        assert "repro_fastpath_container_cache_hits 17" in prom
        assert "repro_fastpath_staging_flushes 3" in prom

    def test_stats_against_dead_port_exits_2(self, capsys):
        code = main(
            ["stats", "--port", "1", "--deadline", "0.5"]
        )
        assert code == 2
        assert "no server" in capsys.readouterr().err


class TestLoadgenCommand:
    def test_loadgen_against_dead_port_exits_2(self, capsys):
        """Every op fails, the oracle learns no key, the sweep reads
        nothing: that run used to print ``OK`` and exit 0."""
        code = main(
            ["loadgen", "--port", "1", "--connections", "2", "--requests",
             "5", "--keys", "4", "--deadline", "0.5"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "no server at 127.0.0.1:1" in captured.err
        assert "all 10 requests failed" in captured.err
        assert "OK" not in captured.out


class TestRefusedSettings:
    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--port", "0", "--capacity", "0"],
            ["serve", "--port", "0", "--shards", "0"],
            ["serve", "--port", "-5"],
            ["loadgen", "--port", "1", "--connections", "0"],
            ["chaos", "--crash", "--crash-points", "0"],
            ["chaos", "--replication", "--link-points", "0"],
            ["chaos", "--server", "--connections", "0"],
            ["chaos", "--crash", "--connections", "0"],
            ["chaos", "--cluster", "--connections", "0"],
            ["chaos", "--replication", "--connections", "0"],
            ["stats", "--port", "70000"],
            ["promote", "--port", "70000"],
            ["loadgen", "--port", "70000"],
            ["chaos", "--keys", "0"],
            ["chaos", "--requests", "0"],
            ["chaos", "--requests", "-5"],
            ["run", "fig02", "--requests", "0"],
            ["run", "fig01", "--jobs", "0"],
            ["chaos", "--workload", "FOO"],
            ["chaos", "--server", "--requests", "0"],
        ],
        ids=[
            "serve_capacity_0",
            "serve_shards_0",
            "serve_port_negative",
            "loadgen_connections_0",
            "crash_points_0",
            "link_points_0",
            "server_connections_0",
            "crash_connections_0",
            "cluster_connections_0",
            "replication_connections_0",
            "stats_port_70000",
            "promote_port_70000",
            "loadgen_port_70000",
            "chaos_keys_0",
            "chaos_requests_0",
            "chaos_requests_negative",
            "run_requests_0",
            "run_jobs_0",
            "chaos_unknown_workload",
            "server_requests_0",
        ],
    )
    def test_exits_2_with_one_error_line(self, capsys, argv):
        """Exit 1 is ``chaos``'s "contract violated"; a setting refused
        before anything ran is exit 2 and one line, not a traceback."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: "), captured.err
        assert captured.err.count("\n") == 1, captured.err
        assert "serving memcached protocol" not in captured.out
