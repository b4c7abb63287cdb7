"""Tests for the ``python -m repro`` command-line interface."""

import os

import pytest

from repro.__main__ import build_parser, main
from repro.experiments.figures import FIGURES, FigureResult
from repro.experiments.parallel import default_workers
from repro.sim.config import ENV_WORKERS


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_figure_command_requires_known_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "nope"])

    def test_figure_options(self):
        args = build_parser().parse_args(
            ["figure", "fig4", "--executions", "7", "--seed", "3",
             "--max-rows", "2"]
        )
        assert args.name == "fig4"
        assert args.executions == 7
        assert args.seed == 3
        assert args.max_rows == 2

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.command == "bench"
        assert args.profile is None
        assert args.skip_floors is False

    def test_bench_profile_flag(self):
        args = build_parser().parse_args(["bench", "--profile"])
        assert args.profile == "bench_profile.pstats"
        args = build_parser().parse_args(
            ["bench", "--profile", "out.pstats", "--skip-floors"]
        )
        assert args.profile == "out.pstats"
        assert args.skip_floors is True


class TestMain:
    def test_list_prints_all_figures(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(FIGURES)

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "bodytrack" in out
        assert "Rotate BG" in out

    def test_figure_runs_driver(self, capsys):
        assert main(["figure", "fig6", "--executions", "8"]) == 0
        out = capsys.readouterr().out
        assert "Prediction Trace" in out

    def test_figure_max_rows_truncates(self, capsys):
        assert main(
            ["figure", "fig6", "--executions", "8", "--max-rows", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "more rows" in out

    def test_bench_loads_harness_module(self):
        from repro.__main__ import _load_bench_module

        bench = _load_bench_module()
        assert callable(bench.run_benchmark)
        assert callable(bench.check_floors)
        # The floor checker accepts the artifact shape run_benchmark
        # emits; a wrong artifact must raise, not pass silently.
        with pytest.raises((AssertionError, KeyError, TypeError)):
            bench.check_floors({})

    @pytest.mark.parametrize("nodes", ["0", "1", "-1"])
    def test_fleet_rejects_fewer_than_two_nodes(
        self, monkeypatch, capsys, nodes
    ):
        import repro.experiments.chaos as chaos

        def fail(**kwargs):
            raise AssertionError("run_fleet_chaos must not run")

        monkeypatch.setattr(chaos, "run_fleet_chaos", fail)
        assert main(["chaos", "--fleet", "--nodes", nodes]) == 2
        out = capsys.readouterr().out
        assert out == "--nodes must be at least 2 (got %s)\n" % nodes

    @pytest.mark.parametrize("argv, message", [
        (["figure", "fig10", "--executions", "0"],
         "--executions must be at least 1 (got 0)"),
        (["figure", "fig10", "--executions", "-3"],
         "--executions must be at least 1 (got -3)"),
        (["figure", "fig10", "--workers", "0"],
         "--workers must be at least 1 (got 0)"),
        (["figure", "fig10", "--workers", "-2"],
         "--workers must be at least 1 (got -2)"),
        (["figure", "fig10", "--executions", "1", "--max-rows", "-1"],
         "--max-rows must be at least 0 (got -1)"),
    ])
    def test_figure_rejects_bad_counts_before_any_work(
        self, monkeypatch, capsys, argv, message
    ):
        def fail(*args, **kwargs):
            raise AssertionError("no work may start")

        monkeypatch.setitem(FIGURES, "fig10", fail)
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        assert main(argv) == 2
        assert capsys.readouterr().out == message + "\n"
        assert ENV_WORKERS not in os.environ

    def test_figure_workers_option_sets_the_worker_count(
        self, monkeypatch, capsys
    ):
        seen = []

        def driver(seed, **kwargs):
            seen.append(default_workers())
            return FigureResult(name="fig10", title="stub", headers=("A",),
                                rows=(("a",),))

        # setenv records the prior value, so teardown undoes the export.
        monkeypatch.setenv(ENV_WORKERS, "1")
        monkeypatch.setitem(FIGURES, "fig10", driver)
        assert main(["figure", "fig10", "--workers", "2"]) == 0
        assert "stub" in capsys.readouterr().out
        assert seen == [2]

    @pytest.mark.parametrize("argv, message", [
        (["chaos", "--executions", "0"],
         "--executions must be at least 1 (got 0)"),
        (["chaos", "--fleet", "--executions", "-1"],
         "--executions must be at least 1 (got -1)"),
        (["chaos", "--max-rows", "-2"],
         "--max-rows must be at least 0 (got -2)"),
    ])
    def test_chaos_rejects_bad_counts_before_any_work(
        self, monkeypatch, capsys, argv, message
    ):
        import repro.experiments.chaos as chaos

        def fail(**kwargs):
            raise AssertionError("no work may start")

        monkeypatch.setattr(chaos, "run_chaos", fail)
        monkeypatch.setattr(chaos, "run_fleet_chaos", fail)
        assert main(argv) == 2
        assert capsys.readouterr().out == message + "\n"

    @pytest.mark.parametrize("argv", [
        ["chaos", "--mix", "no such mix"],
        ["chaos", "--fleet", "--mix", "ferret rs", "--mix", "no such mix"],
    ], ids=["single-node", "fleet"])
    def test_chaos_rejects_unknown_mix_before_any_work(
        self, monkeypatch, capsys, argv
    ):
        import repro.experiments.chaos as chaos

        def fail(**kwargs):
            raise AssertionError("no work may start")

        monkeypatch.setattr(chaos, "run_chaos", fail)
        monkeypatch.setattr(chaos, "run_fleet_chaos", fail)
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert out.startswith("unknown mix 'no such mix' (available: ")
        assert "ferret rs, " in out and out.endswith("\n")
