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
            assert hasattr(module, "main"), name


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
