import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smallarea
from smallarea.cli import main
from smallarea.datasets import synthetic_dataset_path, us_state_borders_path

from test_pipeline import small_area_csv, write_config


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

    def test_numerical_error_exits_3(self, workspace, capsys):
        tmp_path, data, area, edges = workspace
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
        assert main(["run", "--config", str(cfg)]) == 3
        assert "degenerate" in capsys.readouterr().err

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
        assert main(["fit", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert what in err and str(path) in err

    @pytest.mark.parametrize(
        "config_values, flags, message",
        [
            ({}, ["--seed", "-3"], "seed must be a nonnegative integer, got -3"),
            ({"gibbs_iterations": "4e2"}, [], "config key 'gibbs_iterations'"),
            ({}, ["--benchmark-target", "99"], "benchmark_target requires benchmark_weight_column"),
        ],
        ids=["negative-seed-flag", "unparsable-config-value", "target-without-weight-column"],
    )
    def test_bad_numeric_settings_exit_2(self, workspace, capsys, config_values, flags, message):
        tmp_path, _, area, edges = workspace
        cfg = write_config(tmp_path, area, edges, **config_values)
        assert main(["fit", "--config", str(cfg), *flags]) == 2
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


class TestPlotData:
    def test_plot_data_after_run(self, workspace):
        tmp_path, _, area, edges = workspace
        cfg = write_config(tmp_path, area, edges, group_column="group")
        assert main(["run", "--config", str(cfg)]) == 0
        assert main(["plot-data", "--config", str(cfg), "--kind", "scatter_by_group"]) == 0
        assert (tmp_path / "out" / "plot_scatter_by_group.csv").exists()

    def test_plot_data_without_run_fails(self, workspace, capsys):
        tmp_path, _, area, edges = workspace
        cfg = write_config(tmp_path, area, edges, output_dir="fresh")
        assert main(["plot-data", "--config", str(cfg), "--kind", "mse_by_area"]) == 2


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
