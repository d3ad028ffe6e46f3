"""Tests for the command-line interface."""

import pytest

from repro.cli import _experiment_registry, build_parser, main


class TestParser:
    def test_map_defaults(self):
        args = build_parser().parse_args(["map"])
        assert args.nodes == 2500
        assert args.sa == 30.0
        assert args.sd == 4.0

    def test_experiment_requires_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_cache_pointing_at_a_file_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "not-a-dir"
        path.write_text("")
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "fig11a", "--cache", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--cache" in err
        assert str(path) in err

    def test_cache_directory_may_not_exist_yet(self, tmp_path):
        args = build_parser().parse_args(
            ["experiment", "fig11a", "--cache", str(tmp_path / "new")]
        )
        assert args.cache == str(tmp_path / "new")


class TestCommands:
    def test_map_runs(self, capsys):
        rc = main(["map", "--nodes", "600", "--radio-range", "2.5", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reports delivered" in out
        assert "mapping accuracy" in out

    def test_map_render(self, capsys):
        rc = main(
            [
                "map", "--nodes", "600", "--radio-range", "2.5",
                "--render", "--width", "20", "--height", "8",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        # The rendered raster contributes 8 extra lines.
        assert len(out.splitlines()) >= 14

    def test_theory(self, capsys):
        assert main(["theory"]) == 0
        assert "Iso-Map" in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig14a" in out
        assert "theorem41" in out

    def test_unknown_experiment(self, capsys):
        rc = main(["experiment", "fig99"])
        assert rc == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiment_fig09(self, capsys):
        rc = main(["experiment", "fig09"])
        assert rc == 0
        assert "fig09" in capsys.readouterr().out


class TestRegistry:
    def test_every_figure_registered(self):
        registry = _experiment_registry()
        for key in (
            "fig07", "fig09", "fig10", "fig11a", "fig11b", "fig12a",
            "fig12b", "fig13", "fig14a", "fig14b", "fig15", "fig16",
            "fig_continuous", "fig_faults", "fig_simplify", "table1",
            "theorem41",
        ):
            assert key in registry

    def test_ablations_and_extensions_registered(self):
        registry = _experiment_registry()
        assert "ablation_gradient" in registry
        assert "ext_continuous" in registry
        assert "ext_localization" in registry


class TestServeFlags:
    def test_simplify_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--simplify-tolerance", "0.8",
             "--simplified-subscribers", "2"]
        )
        assert args.simplify_tolerance == 0.8
        assert args.simplified_subscribers == 2
        # Off by default: the plain session is unchanged.
        defaults = build_parser().parse_args(["serve"])
        assert defaults.simplify_tolerance is None
        assert defaults.simplified_subscribers == 0

    def test_negative_tolerance_rejected(self, capsys):
        rc = main(["serve", "--simplify-tolerance", "-1.0", "--epochs", "1"])
        assert rc == 2
        assert "non-negative" in capsys.readouterr().err

    def test_simplified_subscribers_need_tolerance(self, capsys):
        rc = main(["serve", "--simplified-subscribers", "1", "--epochs", "1"])
        assert rc == 2
        assert "--simplify-tolerance" in capsys.readouterr().err
