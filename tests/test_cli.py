import argparse
import importlib
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import smallarea
from smallarea.cli import _load_config, build_parser, main
from smallarea.datasets import synthetic_dataset_path, us_state_borders_path, write_area_csv
from smallarea.pipeline import write_report

import test_pipeline
from test_pipeline import _no_chain, small_area_csv, write_config


@pytest.fixture()
def workspace(tmp_path):
    data, area, edges = small_area_csv(tmp_path)
    return tmp_path, data, area, edges


class TestExitCodes:
    def test_run_success(self, workspace, capsys):
        tmp_path, _, area, edges = workspace
        cfg = write_config(tmp_path, area, edges)
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "estimates.csv").exists()

    def test_validation_error_exits_2(self, workspace, capsys):
        tmp_path, _, area, edges = workspace
        cfg = write_config(tmp_path, area, edges)
        cfg.write_text(cfg.read_text() + "mystery = 1\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["degenerate-constraints", "ill-conditioned-sigma"])
    def test_numerical_error_exits_3(self, workspace, capsys, case):
        tmp_path, data, area, edges = workspace
        if case == "degenerate-constraints":
            m = data.m
            w = np.full(m, 1.0 / m)
            M = np.vstack([w, w])
            M[1, 0] += 1e-8
            (tmp_path / "M.csv").write_text(
                "\n".join(",".join(repr(float(v)) for v in row) for row in M) + "\n"
            )
            (tmp_path / "t.csv").write_text("10.0\n10.0\n")
            cfg = write_config(
                tmp_path, area, edges, benchmark_matrix_csv="M.csv", benchmark_targets_csv="t.csv"
            )
            args, message = ["run"], "degenerate"
        else:
            # the bundled fixture at a gamma whose scaled Sigma has a
            # condition number beyond the limit
            area = Path(shutil.copy(synthetic_dataset_path(), tmp_path))
            edges = Path(shutil.copy(us_state_borders_path(), tmp_path))
            cfg = write_config(tmp_path, area, edges, covariate_columns="tax_poverty_rate,nonfiler_rate,foodstamp_rate")
            args = ["estimate", "--gamma", "1e13"]
            message = "[stage estimate] smoothing system is singular or ill-conditioned at gamma=1e+13\n"
        assert main([*args, "--config", str(cfg)]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [["fit"], ["cv", "--gamma-grid", "0.01,10,3"], ["estimate"]],
        ids=["fit", "cv", "estimate"],
    )
    def test_overflowing_chain_exits_3(self, workspace, capsys, args):
        # responses near 1e160 square past the largest float in the chain;
        # fit keeps the theta draws, cv and estimate only their sum
        tmp_path, data, area, edges = workspace
        write_area_csv(replace(data, y=data.y * 1e160), area)
        cfg = write_config(tmp_path, area, edges)
        assert main([*args, "--config", str(cfg)]) == 3
        assert "[stage gibbs] the chain's draws overflowed" in capsys.readouterr().err

    def test_fit_with_a_huge_sampling_variance_warns_nothing(self, workspace, capsys):
        # at D = 1e308 the exact posterior mean's top nodes overflow e^t + D;
        # those nodes are refused, and under the suite's filterwarnings =
        # error a numpy warning would fail the run
        tmp_path, data, area, edges = workspace
        write_area_csv(replace(data, D=np.where(np.arange(data.m) == 3, 1e308, data.D)), area)
        cfg = write_config(tmp_path, area, edges)
        assert main(["fit", "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["estimate", "run"])
    @pytest.mark.parametrize("huge, gamma", [("D", "0.5"), ("gamma", "1e308")])
    def test_a_huge_sampling_variance_or_fixed_gamma_exits_3_warning_nothing(
        self, workspace, capsys, huge, gamma, command
    ):
        # at D = 1e308, r = Phi^{-1/2} is about 1e154 and r r overflows in the
        # one-gamma solver's discs and in the eigen route's scaled K; at
        # gamma = 1e308, gamma lam_max overflows in the eigen route's
        # condition check.  Sigma is refused, and under the suite's
        # filterwarnings = error a numpy warning would escape as an exception
        tmp_path, data, area, edges = workspace
        if huge == "D":
            write_area_csv(replace(data, D=np.where(np.arange(data.m) == 3, 1e308, data.D)), area)
        cfg = write_config(tmp_path, area, edges, gamma=gamma)
        assert main([command, "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: [stage estimate] smoothing system is singular or ill-conditioned "
            f"at gamma={float(gamma):g}\n"
        )

    @pytest.mark.parametrize("d", [0.0, 1e-320, 5e-324])
    def test_a_sampling_variance_without_a_finite_reciprocal_exits_2_naming_its_area(self, workspace, capsys, d):
        # with no phi column the loss weights default to 1/D, which is not
        # finite at D = 0 or at a subnormal D; either is refused at load
        tmp_path, data, area, edges = workspace
        write_area_csv(replace(data, D=np.where(np.arange(data.m) == 3, d, data.D)), area)
        cfg = write_config(tmp_path, area, edges)
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: [stage load] cannot default loss weights to 1/D at area 'r3', where D = {d!r} "
            "has no finite reciprocal; supply a phi column\n"
        )

    @pytest.mark.parametrize(
        "flags, message",
        [
            (
                ["--gamma", "1"],
                "[stage estimate] the penalized objective overflowed; the estimate's values are finite",
            ),
            (
                ["--gamma-grid", "0.01,10,4"],
                "[stage cross-validation] all grid points infeasible; "
                "no area fails at every grid point, and the score overflowed at 4 of 4",
            ),
        ],
        ids=["objective", "cv-scores"],
    )
    def test_overflow_past_finite_estimates_exits_3_saying_what_overflowed(self, bundled, capsys, flags, message):
        # a target of 1e200 moves every estimate near 1e200: the values are
        # finite, but the objective's and the held-out scores' squares are
        # not; neither run prints a numpy warning
        cfg = bundled()
        assert main(["estimate", "--config", str(cfg), *flags, "--benchmark-target", "1e200"]) == 3
        assert capsys.readouterr().err == f"numerical failure: {message}\n"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("gibbs_thin", "0", "config key 'gibbs_thin': thin must be an integer >= 1, got 0"),
            (
                "gibbs_burn",
                "400",
                "config keys 'gibbs_iterations', 'gibbs_burn': need n_iter > n_burn >= 0, got n_iter=400, n_burn=400",
            ),
            ("bootstrap_gibbs_thin", "0", "config key 'bootstrap_gibbs_thin': thin must be an integer >= 1, got 0"),
            (
                "bootstrap_gibbs_burn",
                "3000",
                "config keys 'bootstrap_gibbs_iterations', 'bootstrap_gibbs_burn': "
                "need n_iter > n_burn >= 0, got n_iter=2000, n_burn=3000",
            ),
            ("gamma_grid", "0.1,10,0", "config key 'gamma_grid': num must be an integer >= 1, got 0"),
            ("gamma_grid", "10,0.1,3", "config key 'gamma_grid': need 0 < low < high, got low=10, high=0.1"),
            ("covariate_columns", ",", "config key 'covariate_columns' must name a column, got ','"),
            ("phi_column", "benchmark_weight", "[stage load] phi must be strictly positive; phi=0 at area 'r3'"),
        ],
        ids=[
            "gibbs-thin",
            "gibbs-burn",
            "bootstrap-gibbs-thin",
            "bootstrap-gibbs-burn",
            "gamma-grid-count",
            "gamma-grid-order",
            "covariate-columns",
            "phi-column",
        ],
    )
    def test_a_bad_config_value_exits_2_naming_its_key(self, workspace, capsys, monkeypatch, key, value, message):
        tmp_path, data, area, edges = workspace
        weights = data.benchmark_weights.copy()
        weights[3] = 0.0  # read as phi by the phi-column case
        write_area_csv(replace(data, benchmark_weights=weights), area)
        cfg = write_config(tmp_path, area, edges, gamma="", **{key: value})
        monkeypatch.setattr("smallarea.pipeline.gibbs_fit", _no_chain)
        assert main(["fit", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_self_edge_exits_2(self, workspace, capsys):
        tmp_path, _, area, edges = workspace
        edges.write_text(edges.read_text() + "r3,r3\n")
        cfg = write_config(tmp_path, area, edges)
        assert main(["fit", "--config", str(cfg)]) == 2
        assert "[stage load] self-edge r3-r3 in edge list" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, name",
        [("fit", "fit.csv"), ("cv", "cv_curve.csv"), ("estimate", "estimates.csv"), ("run", "metadata.json")],
    )
    def test_unwritable_output_file_exits_2(self, workspace, capsys, command, name):
        # a directory in the file's place: as root, permission bits would not stop the write
        tmp_path, _, area, edges = workspace
        cfg = write_config(tmp_path, area, edges, gamma="", gamma_grid="0.1,10,3")
        target = tmp_path / "out" / name
        target.mkdir(parents=True)
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"cannot write {target}: Is a directory" in err

    @pytest.mark.parametrize("command", ["fit", "cv", "run"])
    def test_output_dir_that_cannot_be_made_exits_2_before_the_chain(self, workspace, capsys, monkeypatch, command):
        tmp_path, _, area, edges = workspace
        cfg = write_config(tmp_path, area, edges, gamma="", gamma_grid="0.1,10,3", output_dir="o" * 300)
        monkeypatch.setattr("smallarea.pipeline.gibbs_fit", _no_chain)
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [stage load] cannot create directory ") and err.count("\n") == 1
        assert err.endswith(f"{'o' * 300}: File name too long\n")

    @pytest.mark.parametrize("key", ["edge_list", "output_dir"])
    def test_a_nul_byte_in_a_path_exits_2_naming_it(self, workspace, capsys, monkeypatch, key):
        # open() and mkdir() refuse such a path with a ValueError, not an OSError
        tmp_path, _, area, edges = workspace
        if key == "edge_list":
            cfg = write_config(tmp_path, area, edges.with_name(edges.name + "\x00"))
            message = f"cannot read edge list {str(edges) + chr(0)!r}: the path holds a NUL byte"
        else:
            cfg = write_config(tmp_path, area, edges, output_dir="o\x00ut")
            message = f"cannot create directory {str(tmp_path / 'o') + chr(0) + 'ut'!r}: the path holds a NUL byte"
        monkeypatch.setattr("smallarea.pipeline.gibbs_fit", _no_chain)
        assert main(["fit", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: [stage load] {message}\n"

    @pytest.mark.parametrize("command, name", [("fit", "fit.csv"), ("cv", "cv_curve.csv"), ("run", "metadata.json")])
    def test_write_errors_name_the_write_stage(self, workspace, capsys, command, name):
        tmp_path, _, area, edges = workspace
        cfg = write_config(tmp_path, area, edges, gamma="", gamma_grid="0.1,10,3")
        target = tmp_path / "out" / name
        target.mkdir(parents=True)
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: [stage write] cannot write {target}: Is a directory\n"

    @pytest.mark.parametrize("fault", ["missing", "directory", "not-utf8"])
    @pytest.mark.parametrize(
        "key, what",
        [
            ("config", "config file"),
            ("area_csv", "area CSV"),
            ("edge_list", "edge list"),
            ("benchmark_matrix_csv", "benchmark matrix"),
            ("benchmark_targets_csv", "benchmark targets"),
        ],
    )
    def test_unreadable_input_exits_2(self, workspace, capsys, key, what, fault):
        tmp_path, data, area, edges = workspace
        inputs = {"area_csv": area, "edge_list": edges}
        inputs["benchmark_matrix_csv"] = tmp_path / "M.csv"
        inputs["benchmark_targets_csv"] = tmp_path / "t.csv"
        inputs["benchmark_matrix_csv"].write_text(",".join(["1.0"] * data.m) + "\n")
        inputs["benchmark_targets_csv"].write_text("10.0\n")
        cfg = write_config(tmp_path, area, edges, benchmark_matrix_csv="M.csv", benchmark_targets_csv="t.csv")
        path = inputs.get(key, cfg)
        if fault == "not-utf8":
            path.write_bytes(path.read_bytes() + "# \u00e9t\u00e9\n".encode("latin-1"))
        else:
            path.unlink()
            if fault == "directory":
                path.mkdir()
        command = "estimate" if key.startswith("benchmark_") else "fit"  # fit reads no benchmark file
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert what in err and str(path) in err

    def test_fit_reads_no_benchmark_file(self, workspace, capsys):
        tmp_path, _, area, edges = workspace
        (tmp_path / "M.csv").write_text("1.0,1.0\n")  # 2 columns for 8 areas
        (tmp_path / "t.csv").write_text("10.0\n")
        cfg = write_config(tmp_path, area, edges, benchmark_matrix_csv="M.csv", benchmark_targets_csv="t.csv")
        assert main(["fit", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "fit.csv").exists()
        assert main(["estimate", "--config", str(cfg)]) == 2
        assert "[stage load] benchmark matrix must have 8 columns, got shape (1, 2)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config_values, flags, message",
        [
            ("fit", {}, ["--seed", "-3"], "seed must be a nonnegative integer, got -3"),
            ("fit", {"gibbs_iterations": "4e2"}, [], "config key 'gibbs_iterations'"),
            (
                "estimate",
                {},
                ["--benchmark-target", "99"],
                "benchmark_target requires benchmark_weight_column",
            ),
        ],
        ids=["negative-seed-flag", "unparsable-config-value", "target-without-weight-column"],
    )
    def test_bad_numeric_settings_exit_2(self, workspace, capsys, command, config_values, flags, message):
        tmp_path, _, area, edges = workspace
        cfg = write_config(tmp_path, area, edges, **config_values)
        assert main([command, "--config", str(cfg), *flags]) == 2
        assert message in capsys.readouterr().err


class TestOverrides:
    def test_gamma_override(self, workspace):
        tmp_path, _, area, edges = workspace
        cfg = write_config(tmp_path, area, edges, gamma="", gamma_grid="0.01,10,4")
        assert main(["estimate", "--config", str(cfg), "--gamma", "0.0"]) == 0
        rows = (tmp_path / "out" / "estimates.csv").read_text().splitlines()[1:]
        for row in rows:
            fields = row.split(",")
            assert fields[3] == fields[4] == fields[5]  # gamma 0 passes through

    def test_gamma_grid_override(self, workspace):
        tmp_path, _, area, edges = workspace
        cfg = write_config(tmp_path, area, edges)
        assert main(["cv", "--config", str(cfg), "--gamma-grid", "0.1,1,3"]) == 0
        rows = (tmp_path / "out" / "cv_curve.csv").read_text().splitlines()
        assert len(rows) == 4

    def test_gamma_flags_mutually_exclusive(self, workspace, capsys):
        tmp_path, _, area, edges = workspace
        cfg = write_config(tmp_path, area, edges)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg), "--gamma", "1", "--gamma-grid", "0.1,1,3"])
        assert exc.value.code == 2

    def test_seed_and_out_overrides(self, workspace):
        tmp_path, _, area, edges = workspace
        cfg = write_config(tmp_path, area, edges)
        assert main(["fit", "--config", str(cfg), "--seed", "9", "--out", str(tmp_path / "other")]) == 0
        assert (tmp_path / "other" / "fit.csv").exists()

    def test_bootstrap_requires_replicates(self, workspace, capsys):
        tmp_path, _, area, edges = workspace
        cfg = write_config(tmp_path, area, edges)
        assert main(["bootstrap", "--config", str(cfg)]) == 2
        assert main(
            ["bootstrap", "--config", str(cfg), "--bootstrap-reps", "3"]
        ) == 0
        assert (tmp_path / "out" / "bootstrap_mse.csv").exists()


@pytest.fixture()
def bundled(tmp_path):
    """Writes ``run.cfg`` over copies of the bundled fixtures: a benchmark
    weight column, a short chain, neither a gamma choice nor a target, and
    the extra ``key = value`` lines it is given."""
    shutil.copy(synthetic_dataset_path(), tmp_path)
    shutil.copy(us_state_borders_path(), tmp_path)
    lines = [
        "area_csv = synthetic_states.csv",
        "edge_list = us_state_borders.txt",
        "covariate_columns = tax_poverty_rate,nonfiler_rate,foodstamp_rate",
        "benchmark_weight_column = benchmark_weight",
        "gibbs_iterations = 400",
        "gibbs_burn = 100",
    ]

    def write(*extra):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join([*lines, *extra]) + "\n")
        return cfg

    return write


# replicates re-cross-validated: they need a gamma grid
RECROSS = ("benchmark_target = 15", "bootstrap_replicates = 5", "bootstrap_gamma_policy = re-cross-validate")


class TestFlagsAreConfigEntries:
    @pytest.mark.parametrize(
        "extra, argv, written",
        [
            ((), ["estimate", "--gamma", "0.5", "--benchmark-target", "15"], "estimates.csv"),
            ((), ["cv", "--gamma-grid", "0.1,10,3", "--benchmark-target", "15"], "cv_curve.csv"),
            (("gamma = 0.5",), ["estimate", "--benchmark-target", "15"], "estimates.csv"),
            (("gamma = 0.5", *RECROSS), ["estimate"], "estimates.csv"),
        ],
        ids=["estimate-gamma-and-target", "cv-grid-and-target", "estimate-target", "estimate-ignores-bootstrap"],
    )
    def test_a_flag_supplies_what_the_file_leaves_out(self, bundled, capsys, extra, argv, written):
        cfg = bundled(*extra)
        assert main([*argv, "--config", str(cfg)]) == 0
        out = cfg.parent / "out"
        assert capsys.readouterr().out == f"{out / written}\n"
        assert (out / written).exists() and not (out / "bootstrap_mse.csv").exists()

    @pytest.mark.parametrize(
        "extra, flags",
        [(RECROSS, ["--gamma", "0.5"]), (("gamma = 0.5",), ["--benchmark-target", "15"])],
        ids=["no-gamma-in-the-file", "no-target-in-the-file"],
    )
    @pytest.mark.parametrize("out", [False, True], ids=["config-out", "flag-out"])
    def test_fit_and_plot_data_need_no_setting_they_do_not_read(self, bundled, capsys, extra, flags, out):
        cfg = bundled("group_column = group", *extra)
        where = ["--out", str(cfg.parent / "elsewhere")] if out else []
        assert main(["fit", "--config", str(cfg), *where]) == 0
        assert main(["estimate", "--config", str(cfg), *flags, *where]) == 0
        assert main(["plot-data", "--config", str(cfg), "--kind", "scatter_by_group", *where]) == 0
        written = cfg.parent / ("elsewhere" if out else "out")
        assert capsys.readouterr().out.splitlines() == [
            str(written / name) for name in ("fit.csv", "estimates.csv", "plot_scatter_by_group.csv")
        ]

    @pytest.mark.parametrize("command", ["estimate", "bootstrap", "run"])
    @pytest.mark.parametrize(
        "extra, message",
        [
            (("benchmark_target = 15",), "exactly one of a fixed gamma or a gamma grid must be chosen"),
            (("gamma = 0.5",), "a benchmark_target is required with a weight column"),
        ],
        ids=["no-gamma", "no-target"],
    )
    def test_a_run_missing_a_setting_it_reads_exits_2_before_the_chain(
        self, bundled, capsys, monkeypatch, command, extra, message
    ):
        cfg = bundled("bootstrap_replicates = 2", *extra)
        monkeypatch.setattr("smallarea.pipeline.gibbs_fit", _no_chain)
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_config_still_invalid_after_its_flags_exits_2(self, bundled, capsys):
        cfg = bundled("gamma_grid = 0.1,10,3", *RECROSS)
        assert main(["bootstrap", "--config", str(cfg), "--gamma", "0.5"]) == 2
        err = capsys.readouterr().err
        assert err == "error: bootstrap_gamma_policy = re-cross-validate requires a gamma_grid\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "x"], "config key 'seed': expected an integer, got 'x'"),
            (["--gamma", "nan"], "gamma must be a finite nonnegative real, got nan"),
            (["--gamma-grid", "0.1,10"], "gamma_grid must be 'low,high,n', got '0.1,10'"),
            (["--benchmark-target", "ten"], "config key 'benchmark_target': expected a real number, got 'ten'"),
            (["--bootstrap-reps", "2.5"], "config key 'bootstrap_replicates': expected an integer, got '2.5'"),
            (["--out", ""], "config key 'output_dir' must not be empty"),
        ],
        ids=["seed", "gamma", "gamma-grid", "benchmark-target", "bootstrap-reps", "out"],
    )
    def test_a_bad_flag_value_exits_2_naming_its_key(self, bundled, capsys, flags, message):
        cfg = bundled("gamma = 0.5", "benchmark_target = 15")
        assert main(["run", "--config", str(cfg), *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_out_is_relative_to_the_working_directory(self, workspace, monkeypatch):
        tmp_path, _, area, edges = workspace
        cfg = write_config(tmp_path, area, edges)
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        assert main(["fit", "--config", str(cfg), "--out", "rel"]) == 0
        assert (tmp_path / "cwd" / "rel" / "fit.csv").exists()
        assert not (tmp_path / "rel").exists()


# the override flags each command reads; every other flag is a usage error
COMMAND_FLAGS = {
    "fit": {"--seed", "--out"},
    "cv": {"--seed", "--out", "--gamma-grid", "--benchmark-target"},
    "estimate": {"--seed", "--out", "--gamma", "--gamma-grid", "--benchmark-target"},
    "bootstrap": {"--seed", "--out", "--gamma", "--gamma-grid", "--benchmark-target", "--bootstrap-reps"},
    "run": {"--seed", "--out", "--gamma", "--gamma-grid", "--benchmark-target", "--bootstrap-reps"},
    "plot-data": {"--out"},
}
# flag -> (its value on the command line, the RunConfig field it sets, that field's value)
FLAG_VALUES = {
    "--seed": ("7", "seed", 7),
    "--out": ("elsewhere", "output_dir", Path("elsewhere")),
    "--gamma": ("0.25", "gamma", 0.25),
    "--gamma-grid": ("0.1,1,3", "gamma_grid", [0.1, 10**-0.5, 1.0]),
    "--benchmark-target": ("12.5", "benchmark_target", 12.5),
    "--bootstrap-reps": ("4", "bootstrap_replicates", 4),
}


def _accepted_flags(parser) -> dict[str, set[str]]:
    """Each subcommand's override flags, read from the parser itself."""
    (subs,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {f for a in sub._actions for f in a.option_strings} - {"-h", "--help", "--config", "--kind"}
        for name, sub in subs.choices.items()
    }


class TestCommandFlags:
    def test_twenty_four_override_flags(self):
        accepted = _accepted_flags(build_parser())
        assert accepted == COMMAND_FLAGS
        assert sum(len(flags) for flags in accepted.values()) == 24

    @pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_a_command_takes_only_the_flags_it_reads(self, workspace, command, flag):
        tmp_path, _, area, edges = workspace
        cfg = write_config(tmp_path, area, edges, benchmark_weight_column="w", benchmark_target="10")
        argv = [command, "--config", str(cfg), flag, FLAG_VALUES[flag][0]]
        if command == "plot-data":
            argv += ["--kind", "mse_by_area"]
        if flag not in COMMAND_FLAGS[command]:
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2
            return
        config = _load_config(build_parser().parse_args(argv))
        _, field, value = FLAG_VALUES[flag]
        if field == "gamma_grid":
            np.testing.assert_allclose(config.gamma_grid, value, rtol=1e-15)
        else:
            assert getattr(config, field) == value
        assert (config.gamma is None) == (flag == "--gamma-grid")

    @pytest.mark.parametrize(
        "argv",
        [["cv", "--gamma", "1"], ["fit", "--boot", "3"], ["run", "--gamma-g", "0.1,1,3"]],
        ids=["cv-gamma", "fit-boot", "run-gamma-g"],
    )
    def test_abbreviations_exit_2(self, workspace, capsys, argv):
        # each is a prefix of a flag; only run accepts the flag it abbreviates
        tmp_path, _, area, edges = workspace
        cfg = write_config(tmp_path, area, edges)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(cfg)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_readme_table_lists_the_flags_the_parser_accepts(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        lines = readme.splitlines()
        start = lines.index("| command | override flags |") + 2
        documented = {}
        for line in itertools.takewhile(lambda text: text.startswith("|"), lines[start:]):
            commands, flags = line.strip("|").split("|")
            for command in re.findall(r"`([a-z-]+)`", commands):
                documented[command] = set(re.findall(r"`(--[a-z-]+)", flags))
        assert documented == _accepted_flags(build_parser())


class TestPlotData:
    def test_plot_data_after_run(self, workspace):
        tmp_path, _, area, edges = workspace
        cfg = write_config(tmp_path, area, edges, group_column="group")
        assert main(["run", "--config", str(cfg)]) == 0
        assert main(["plot-data", "--config", str(cfg), "--kind", "scatter_by_group"]) == 0
        assert (tmp_path / "out" / "plot_scatter_by_group.csv").exists()

    @pytest.mark.parametrize(
        "metadata, message",
        [
            ({"benchmark": {"target": 1.0}}, "benchmarked reports must record the constraint residual"),
            (
                {"benchmark": {"target": 1.0}, "constraint_residual": 1.0},
                "recorded constraint residual 1.0 exceeds tolerance",
            ),
        ],
        ids=["no-residual", "residual-above-tolerance"],
    )
    def test_plot_data_on_a_report_without_a_valid_residual_exits_2(self, workspace, capsys, metadata, message):
        tmp_path, _, area, edges = workspace
        cfg = write_config(tmp_path, area, edges)
        out = write_report(test_pipeline.TestReportIo._hand_built_report(), tmp_path / "out")
        (out / "metadata.json").write_text(json.dumps(metadata))
        assert main(["plot-data", "--config", str(cfg), "--kind", "scatter_constrained_vs_bayes"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "plot_scatter_constrained_vs_bayes.csv").exists()

    @pytest.mark.parametrize(
        "name, old, new, message",
        [
            ("estimates.csv", "0.5,0.20000000000000001,", "0.5,nan,", "report column theta_benchmarked contains non-finite entries"),
            ("cv_curve.csv", "1,0.75,", "1,0.75,-5", "a grid point that lists failed areas must score +inf and list no negative index"),
            ("bootstrap_mse.csv", "a,0.01,", "a,-3,", "report columns D and mse must be nonnegative"),
        ],
        ids=["nan-estimate", "negative-failed-area", "negative-mse"],
    )
    def test_plot_data_on_a_report_no_run_could_write_exits_2(self, workspace, capsys, name, old, new, message):
        # a report file is input from outside the program: values that
        # run_pipeline never writes are refused, not passed on to the plot
        tmp_path, _, area, edges = workspace
        cfg = write_config(tmp_path, area, edges)
        out = write_report(test_pipeline.TestReportIo._hand_built_report(), tmp_path / "out")
        path = out / name
        text = path.read_text(encoding="utf-8")
        assert old in text
        path.write_text(text.replace(old, new), encoding="utf-8")
        assert main(["plot-data", "--config", str(cfg), "--kind", "scatter_constrained_vs_bayes"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "plot_scatter_constrained_vs_bayes.csv").exists()

    def test_plot_data_without_run_fails(self, workspace, capsys):
        tmp_path, _, area, edges = workspace
        cfg = write_config(tmp_path, area, edges, output_dir="fresh")
        assert main(["plot-data", "--config", str(cfg), "--kind", "mse_by_area"]) == 2


def test_seeded_input_mutations_keep_the_error_contract(tmp_path):
    # the first 300 cases of tests/fuzz_cli.py: the bundled fixture's area
    # CSV, edge list or config mutated once or twice, then fit, cv,
    # estimate or run; each exits 0, 2 or 3, raises nothing and warns
    # nothing, and the report of each that exits 0 passes its check
    import fuzz_cli

    cases = [(seed, *fuzz_cli.run_case(seed, tmp_path / str(seed))) for seed in range(300)]
    assert [case for case in cases if fuzz_cli.broken(case[-1])] == []
    assert {0, 2} <= {outcome for *_, outcome in cases}  # some cases run, some are refused


def _child_env():
    # the child process imports the same package as this test
    src = str(Path(smallarea.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_import_loads_no_scipy():
    code = (
        "import sys, smallarea, smallarea.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_script_entry_point(workspace):
    tmp_path, _, area, edges = workspace
    cfg = write_config(tmp_path, area, edges)
    proc = subprocess.run(
        [sys.executable, "-m", "smallarea.cli", "estimate", "--config", str(cfg)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "estimates.csv" in proc.stdout


def test_fit_and_estimate_write_the_same_theta_bayes(workspace):
    # fit averages the chain's kept theta draws, estimate keeps only their
    # running sum; 17 significant digits round-trip, so equal text is equal
    # values.  At m + p = 10 a block is 6553 iterations: the chain spans three.
    tmp_path, _, area, edges = workspace
    cfg = write_config(tmp_path, area, edges, gibbs_iterations=14_000, gibbs_burn=301, gibbs_thin=2, seed=7)
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "fit")]) == 0
    assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "estimate")]) == 0
    fit = test_pipeline.read_column(tmp_path / "fit" / "fit.csv", "theta_bayes")
    estimate = test_pipeline.read_column(tmp_path / "estimate" / "estimates.csv", "theta_bayes")
    assert len(fit) == 8
    assert fit == estimate


def test_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the criterion-9 run on the bundled 51-area fixture, once in a process
    # with one BLAS thread and once in a process with two
    names = ("estimates.csv", "cv_curve.csv", "bootstrap_mse.csv", "metadata.json")
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        cfg = tmp_path / f"threads{threads}.cfg"
        settings = {
            "area_csv": synthetic_dataset_path(),
            "edge_list": us_state_borders_path(),
            "covariate_columns": "tax_poverty_rate,nonfiler_rate,foodstamp_rate",
            "group_column": "group",
            "benchmark_weight_column": "benchmark_weight",
            "benchmark_target": 15.0,
            "gamma_grid": "0.0001,100,40",
            "gibbs_iterations": 4000,
            "gibbs_burn": 1000,
            "bootstrap_replicates": 200,
            "seed": 11,
            "output_dir": out,
        }
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        env = dict(_child_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "smallarea.cli", "run", "--config", str(cfg)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append({n: (out / n).read_bytes() for n in names})
    assert reports[0] == reports[1]


def test_lattice_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, monkeypatch):
    # the benchmark's 200-area lattice with cross-validation and two benchmark
    # rows, run once in a process with one BLAS thread and once with two; the
    # generator solves m x m systems, so its own bytes depend on the thread
    # count, and the inputs are written once, here
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "bench"))
    synth = importlib.import_module("synth")
    cfg = synth.write_workload(synth.WORKLOADS["lattice200-cv"], 1, tmp_path, root)
    reports = []
    for threads in ("1", "2"):
        env = dict(_child_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "smallarea.cli", "run", "--config", str(cfg)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append({p.name: p.read_bytes() for p in sorted((tmp_path / "out").iterdir())})
    assert "cv_curve.csv" in reports[0]
    assert reports[0] == reports[1]


def test_fixed_gamma_lattice_estimates_do_not_depend_on_the_blas_thread_count(tmp_path, monkeypatch):
    # the benchmark's 1000-area lattice at a fixed gamma, run once in a
    # process with one BLAS thread and once with two: its estimates are
    # solved by conjugate gradients, which call no BLAS routine.  The
    # bootstrap's exact posterior means still round with the thread count,
    # so bootstrap_mse.csv is not compared.  The inputs are written once.
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "bench"))
    synth = importlib.import_module("synth")
    cfg = synth.write_workload(synth.WORKLOADS["lattice1000-fixed"], 1, tmp_path, root)
    estimates = []
    for threads in ("1", "2"):
        env = dict(_child_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "smallarea.cli", "run", "--config", str(cfg)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        estimates.append((tmp_path / "out" / "estimates.csv").read_bytes())
    assert estimates[0] == estimates[1]


@pytest.fixture(scope="module")
def fixed_gamma_lattice(tmp_path_factory):
    """The benchmark's 1000-area lattice at a fixed gamma, written once,
    with a 400/100-iteration chain and no bootstrap: the config's path."""
    root = Path(__file__).resolve().parents[1]
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(root / "bench"))
        synth = importlib.import_module("synth")
    work = tmp_path_factory.mktemp("lattice1000")
    cfg = synth.write_workload(synth.WORKLOADS["lattice1000-fixed"], 1, work, root)
    kept = [line for line in cfg.read_text().splitlines() if not line.startswith(("gibbs_", "bootstrap_"))]
    cfg.write_text("\n".join([*kept, "gibbs_iterations = 400", "gibbs_burn = 100", "bootstrap_replicates = 0"]) + "\n")
    return cfg


def test_fixed_gamma_lattice_run_estimates_equal_one_off_calls_bitwise(fixed_gamma_lattice, tmp_path, monkeypatch):
    # with a weighted-mean benchmark added, the run's two estimates take
    # conjugate gradients, and library calls with the plain omega on the
    # run's theta_bayes take the same route to the same bits
    from oracles import count_eigendecompositions, count_solves
    from smallarea import RunConfig, benchmarked_estimate, run_pipeline, smoothed_estimate
    from smallarea.pipeline import _prepare_inputs

    for name in ("areas.csv", "edges.txt"):
        shutil.copy(fixed_gamma_lattice.parent / name, tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(fixed_gamma_lattice.read_text() + "benchmark_weight_column = benchmark_weight\nbenchmark_target = 15.0\n")
    config = RunConfig.from_file(cfg)
    _, omega, phi, constraints, _ = _prepare_inputs(config)
    factors, solves = count_eigendecompositions(monkeypatch), count_solves(monkeypatch, 1000)
    report = run_pipeline(config)
    smoothed = smoothed_estimate(report.theta_bayes, phi, omega.omega, 0.5).values
    benchmarked = benchmarked_estimate(report.theta_bayes, phi, omega.omega, 0.5, constraints).values
    assert factors == [] and solves == []
    np.testing.assert_array_equal(smoothed, report.theta_smoothed)
    np.testing.assert_array_equal(benchmarked, report.theta_benchmarked)


@pytest.mark.parametrize("d", [1e-4, 1e-8, 1e-12, 1e-20, 1e-200])
def test_fixed_gamma_lattice_estimate_with_one_tiny_sampling_variance_matches_the_kkt_reference(
    fixed_gamma_lattice, tmp_path, capsys, d
):
    # one area's phi = 1/D dwarfs every other's; the conjugate-gradient
    # route still smooths the rest, to the bordered KKT solution of the
    # theta_bayes the run wrote, and warns nothing
    from oracles import kkt_solve
    from smallarea.similarity import build_omega, load_adjacency, read_edge_list

    work = fixed_gamma_lattice.parent
    rows = (work / "areas.csv").read_text().splitlines()
    cells = rows[10].split(",")
    assert cells[0] == "A0009"
    cells[2] = repr(d)
    rows[10] = ",".join(cells)
    (tmp_path / "areas.csv").write_text("\n".join(rows) + "\n")
    shutil.copy(work / "edges.txt", tmp_path)
    cfg = Path(shutil.copy(fixed_gamma_lattice, tmp_path))
    assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    estimates = tmp_path / "out" / "estimates.csv"
    theta, smoothed = (
        np.array(test_pipeline.read_column(estimates, column), dtype=float)
        for column in ("theta_bayes", "theta_smoothed")
    )
    labels = tuple(test_pipeline.read_column(estimates, "label"))
    D = np.array([float(row.split(",")[2]) for row in rows[1:]])
    omega = build_omega(load_adjacency(read_edge_list(tmp_path / "edges.txt"), labels)).omega
    reference = kkt_solve(theta, 1.0 / D, omega, 0.5)
    assert np.max(np.abs(smoothed - reference) / (1.0 + np.abs(reference))) <= 1e-12
