import csv
import itertools
import json
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from smallarea import (
    AreaDataset,
    BootstrapConfig,
    CsvSchema,
    CvCurve,
    EstimateReport,
    GibbsConfig,
    NumericalError,
    RunConfig,
    ValidationError,
    benchmarked_estimate,
    bootstrap_mse,
    cross_validate,
    emit_plot_data,
    load_area_csv,
    read_report,
    run_pipeline,
    smoothed_estimate,
    write_area_csv,
)
from smallarea.estimators import _OneGammaSolver, _SigmaSolver
from smallarea.pipeline import _CONFIG_DEFAULTS, _prepare_inputs, write_report
from smallarea.datasets import (
    FIXTURE_SCHEMA,
    US_STATE_LABELS,
    synthetic_dataset_path,
    synthetic_saipe_like,
    us_state_borders_path,
)

from oracles import count_eigendecompositions, count_solves, exact_posterior_mean, per_replicate, reference_replicate


def small_area_csv(tmp_path, m=8, seed=0, zero_d=False):
    rng = np.random.Generator(np.random.Philox(400 + seed))
    x = rng.normal(size=m)
    D = np.zeros(m) if zero_d else rng.uniform(0.5, 2.0, size=m)
    y = 10.0 + 1.5 * x + rng.normal(0.0, 1.0, size=m)
    data = AreaDataset(
        labels=tuple(f"r{i}" for i in range(m)),
        y=y,
        D=D,
        covariates=x[:, None],
        covariate_names=("x",),
        benchmark_weights=rng.uniform(1.0, 5.0, size=m),
        groups=tuple("AB"[i % 2] for i in range(m)),
    )
    path = tmp_path / "areas.csv"
    write_area_csv(data, path)
    edge_path = tmp_path / "edges.txt"
    lines = [f"r{i},r{i+1}" for i in range(m - 1)]
    edge_path.write_text("\n".join(lines) + "\n")
    return data, path, edge_path


def write_config(tmp_path, area_csv, edge_list, **overrides):
    values = {
        "area_csv": area_csv.name,
        "edge_list": edge_list.name,
        "covariate_columns": "x",
        "output_dir": "out",
        "seed": "3",
        "gamma": "0.5",
        "gibbs_iterations": "400",
        "gibbs_burn": "100",
    }
    values.update({k: str(v) for k, v in overrides.items()})
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(f"{k} = {v}" for k, v in values.items()) + "\n")
    return path


def _no_chain(*args, **kwargs):
    raise AssertionError("the chain ran")


def read_column(path, name):
    with open(path, newline="") as fh:
        return [row[name] for row in csv.DictReader(fh)]


class TestLoadAreaCsv:
    def test_well_formed_three_rows(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("label,y,D,x\na,1.0,0.5,0.1\nb,2.0,0.5,0.2\nc,3.0,0.5,0.3\n")
        data = load_area_csv(path, CsvSchema(covariates=("x",)))
        assert data.m == 3
        assert data.labels == ("a", "b", "c")
        np.testing.assert_allclose(data.phi, 2.0)  # defaults to 1/D

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("label,y,x\na,1.0,0.1\n")
        with pytest.raises(ValidationError, match="missing column 'D'"):
            load_area_csv(path, CsvSchema(covariates=("x",)))

    def test_non_numeric_cell_reports_row_and_column(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("label,y,D,x\na,1.0,0.5,0.1\nb,oops,0.5,0.2\n")
        with pytest.raises(ValidationError, match="'oops' in column 'y', row 3"):
            load_area_csv(path, CsvSchema(covariates=("x",)))
        # a skipped blank line still counts: the row is named by its line
        path.write_text("label,y,D,x\na,1.0,0.5,0.1\n\nb,oops,0.5,0.2\n")
        with pytest.raises(ValidationError, match="'oops' in column 'y', row 4"):
            load_area_csv(path, CsvSchema(covariates=("x",)))

    def test_negative_d_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("label,y,D,x\na,1.0,-0.5,0.1\nb,1.0,0.5,0.2\n")
        with pytest.raises(ValidationError, match="negative sampling variance"):
            load_area_csv(path, CsvSchema(covariates=("x",)))

    def test_duplicate_label_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("label,y,D,x\na,1.0,0.5,0.1\na,1.0,0.5,0.2\n")
        with pytest.raises(ValidationError, match="duplicate label"):
            load_area_csv(path, CsvSchema(covariates=("x",)))

    def test_zero_d_without_phi_column_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("label,y,D,x\na,1.0,0.0,0.1\nb,1.0,0.5,0.2\n")
        with pytest.raises(ValidationError, match="phi column"):
            load_area_csv(path, CsvSchema(covariates=("x",)))

    @pytest.mark.parametrize(
        "row, cells", [pytest.param("b,2.0,0.5", 3, id="short"), pytest.param("b,2.0,0.5,0.2,9", 5, id="long")]
    )
    def test_ragged_row_names_the_line(self, tmp_path, row, cells):
        path = tmp_path / "a.csv"
        path.write_text(f"label,y,D,x\na,1.0,0.5,0.1\n{row}\nc,3.0,0.5,0.3\n")
        with pytest.raises(ValidationError, match=rf"a\.csv:3: expected 4 cells, got {cells}"):
            load_area_csv(path, CsvSchema(covariates=("x",)))

    def test_repeated_header_name_rejected(self, tmp_path):
        # the second y column would otherwise be read as the responses
        path = tmp_path / "a.csv"
        path.write_text("label,y,D,x,y\na,1.0,0.5,0.1,7.0\nb,2.0,0.5,0.2,8.0\nc,3.0,0.5,0.3,9.0\n")
        with pytest.raises(ValidationError, match=rf"^repeated column 'y' in {re.escape(str(path))}$"):
            load_area_csv(path, CsvSchema(covariates=("x",)))

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("label,y,D,x\n")
        with pytest.raises(ValidationError, match=rf"^area CSV {re.escape(str(path))} has no data rows$"):
            load_area_csv(path, CsvSchema(covariates=("x",)))

    def test_explicit_phi_column(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("label,y,D,x,w\na,1.0,0.0,0.1,2.0\nb,1.0,0.5,0.2,3.0\n")
        data = load_area_csv(path, CsvSchema(covariates=("x",), phi="w"))
        np.testing.assert_allclose(data.phi, [2.0, 3.0])

    def test_round_trip_exact(self, tmp_path):
        data, path, _ = small_area_csv(tmp_path)
        schema = CsvSchema(
            covariates=("x",), benchmark_weight="benchmark_weight", group="group"
        )
        loaded = load_area_csv(path, schema)
        rewritten = tmp_path / "b.csv"
        write_area_csv(loaded, rewritten, schema)
        again = load_area_csv(rewritten, schema)
        assert again.labels == loaded.labels
        assert np.array_equal(again.y, loaded.y)
        assert np.array_equal(again.D, loaded.D)
        assert np.array_equal(again.covariates, loaded.covariates)
        assert np.array_equal(again.benchmark_weights, loaded.benchmark_weights)
        assert again.groups == loaded.groups


class TestSyntheticFixture:
    def test_fixture_matches_generator_output(self):
        shipped = load_area_csv(synthetic_dataset_path(), FIXTURE_SCHEMA)
        fresh = synthetic_saipe_like()
        assert shipped.labels == fresh.labels == US_STATE_LABELS
        assert np.array_equal(shipped.y, fresh.y)
        assert np.array_equal(shipped.D, fresh.D)
        assert np.array_equal(shipped.covariates, fresh.covariates)
        assert shipped.groups == fresh.groups

    def test_fixture_labels_match_border_fixture(self):
        shipped = load_area_csv(synthetic_dataset_path(), FIXTURE_SCHEMA)
        border_labels = set()
        for line in us_state_borders_path().read_text().splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                a, b = line.split(",")[:2]
                border_labels.update((a, b))
        assert border_labels <= set(shipped.labels)
        assert np.all(shipped.D > 0)


class TestRunConfig:
    def test_unknown_key_rejected(self, tmp_path):
        _, area, edges = small_area_csv(tmp_path)
        cfg = write_config(tmp_path, area, edges)
        cfg.write_text(cfg.read_text() + "mystery_knob = 7\n")
        with pytest.raises(ValidationError, match="unknown config key 'mystery_knob'"):
            RunConfig.from_file(cfg)

    def test_repeated_key_names_both_lines(self, tmp_path):
        _, area, edges = small_area_csv(tmp_path)
        cfg = write_config(tmp_path, area, edges)
        lines = cfg.read_text().splitlines()
        first = next(n for n, line in enumerate(lines, start=1) if line.startswith("seed"))
        cfg.write_text("\n".join(lines) + "\n# a comment\n\nseed = 9\n")
        repeat = len(lines) + 3
        with pytest.raises(ValidationError, match=rf"run.cfg:{repeat}: config key 'seed' repeats line {first}$"):
            RunConfig.from_file(cfg)

    def test_line_without_equals_names_the_line(self, tmp_path):
        _, area, edges = small_area_csv(tmp_path)
        cfg = write_config(tmp_path, area, edges)
        lines = cfg.read_text().splitlines()
        cfg.write_text("\n".join([*lines, "gamma_grid 0.1,10,3"]) + "\n")
        with pytest.raises(ValidationError, match=rf"run.cfg:{len(lines) + 1}: expected 'key = value'$"):
            RunConfig.from_file(cfg)

    def test_add_intercept_is_true_or_false(self, tmp_path):
        _, area, edges = small_area_csv(tmp_path)
        cfg = write_config(tmp_path, area, edges, add_intercept="false")
        assert RunConfig.from_file(cfg).schema.add_intercept is False
        cfg = write_config(tmp_path, area, edges, add_intercept="maybe")
        with pytest.raises(ValidationError, match="^config key 'add_intercept': expected true/false, got 'maybe'$"):
            RunConfig.from_file(cfg)

    def test_readme_table_lists_every_key_and_its_default(self):
        """README's "All keys" table names exactly the config keys, and each
        row's defaults are the non-empty ones of ``_CONFIG_DEFAULTS``, in
        the order of the row's keys."""
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
        start = lines.index("| key | meaning | default |") + 2
        documented = {}
        for line in itertools.takewhile(lambda text: text.startswith("|"), lines[start:]):
            keys, _, defaults = line.strip("|").split("|")
            keys = re.findall(r"`([a-z_]+)`", keys)
            defaults = [d.strip().strip("`") for d in defaults.split(",")] if defaults.strip() else [""] * len(keys)
            documented.update(zip(keys, defaults, strict=True))
        assert documented == {key: default or "" for key, default in _CONFIG_DEFAULTS.items()}

    def test_missing_required_keys(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("area_csv = a.csv\n")
        with pytest.raises(ValidationError, match="missing required keys"):
            RunConfig.from_file(cfg)

    def test_gamma_and_grid_both_set_rejected(self, tmp_path):
        _, area, edges = small_area_csv(tmp_path)
        cfg = write_config(tmp_path, area, edges, gamma_grid="0.01,10,5")
        with pytest.raises(ValidationError, match="exactly one"):
            RunConfig.from_file(cfg)

    def test_neither_gamma_nor_grid_rejected(self, tmp_path, monkeypatch):
        # the chain reads no gamma: a config without one runs to the gibbs
        # stop, and a run to the report fails before the chain
        _, area, edges = small_area_csv(tmp_path)
        config = RunConfig.from_file(write_config(tmp_path, area, edges, gamma=""))
        assert run_pipeline(config, stop_after="gibbs") is None
        monkeypatch.setattr("smallarea.pipeline.gibbs_fit", _no_chain)
        with pytest.raises(ValidationError, match="^exactly one of a fixed gamma or a gamma grid must be chosen$"):
            run_pipeline(config)

    def test_grid_spec_parsing(self, tmp_path):
        _, area, edges = small_area_csv(tmp_path)
        cfg = write_config(tmp_path, area, edges, gamma="", gamma_grid="0.01,10,5")
        config = RunConfig.from_file(cfg)
        assert config.gamma is None
        assert config.gamma_grid.shape == (5,)
        assert config.gamma_grid[0] == pytest.approx(0.01)
        assert config.gamma_grid[-1] == pytest.approx(10.0)

    def test_weight_benchmark_requires_target(self, tmp_path, monkeypatch):
        # the chain reads no target: a config without one runs to the gibbs
        # stop, and the stops that benchmark fail before the chain
        _, area, edges = small_area_csv(tmp_path)
        cfg = write_config(
            tmp_path, area, edges, benchmark_weight_column="benchmark_weight", gamma="", gamma_grid="0.1,10,3"
        )
        config = RunConfig.from_file(cfg)
        assert run_pipeline(config, stop_after="gibbs") is None
        monkeypatch.setattr("smallarea.pipeline.gibbs_fit", _no_chain)
        for stop_after in ("cross-validation", "report"):
            with pytest.raises(ValidationError, match="^a benchmark_target is required with a weight column$"):
                run_pipeline(config, stop_after=stop_after)

    def test_recv_policy_requires_grid(self, tmp_path):
        _, area, edges = small_area_csv(tmp_path)
        cfg = write_config(
            tmp_path,
            area,
            edges,
            bootstrap_replicates="2",
            bootstrap_gamma_policy="re-cross-validate",
        )
        with pytest.raises(ValidationError, match="re-cross-validate requires"):
            RunConfig.from_file(cfg)

    def test_unknown_gamma_policy_rejected(self, tmp_path):
        _, area, edges = small_area_csv(tmp_path)
        cfg = write_config(tmp_path, area, edges, bootstrap_gamma_policy="sometimes")
        with pytest.raises(ValidationError, match="bootstrap_gamma_policy must be one of"):
            RunConfig.from_file(cfg)

    def test_target_without_weight_column_rejected(self, tmp_path):
        _, area, edges = small_area_csv(tmp_path)
        cfg = write_config(tmp_path, area, edges, benchmark_target="15.0")
        with pytest.raises(ValidationError, match="benchmark_target requires benchmark_weight_column"):
            RunConfig.from_file(cfg)

    def test_targets_file_without_matrix_rejected(self, tmp_path):
        _, area, edges = small_area_csv(tmp_path)
        (tmp_path / "t.csv").write_text("10.0\n")
        cfg = write_config(tmp_path, area, edges, benchmark_targets_csv="t.csv")
        with pytest.raises(ValidationError, match="benchmark_targets_csv requires benchmark_matrix_csv"):
            RunConfig.from_file(cfg)

    @pytest.mark.parametrize(
        "settings, message",
        [
            (
                {"benchmark_weight_column": "w", "benchmark_target": "10", "benchmark_matrix_csv": "M.csv"},
                "choose one benchmark form: a weight column or a constraint matrix file",
            ),
            ({"benchmark_matrix_csv": "M.csv"}, "benchmark_matrix_csv requires benchmark_targets_csv"),
        ],
        ids=["weight-column-and-matrix", "matrix-without-targets"],
    )
    def test_contradicting_benchmark_settings_rejected(self, tmp_path, settings, message):
        _, area, edges = small_area_csv(tmp_path)
        cfg = write_config(tmp_path, area, edges, **settings)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            RunConfig.from_file(cfg)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("gibbs_iterations", "4e2", "config key 'gibbs_iterations': expected an integer, got '4e2'"),
            ("bootstrap_gibbs_thin", "", "config key 'bootstrap_gibbs_thin': expected an integer, got ''"),
            ("seed", "x", "config key 'seed': expected an integer, got 'x'"),
            ("gamma", "abc", "config key 'gamma': expected a real number, got 'abc'"),
            ("benchmark_target", "x", "config key 'benchmark_target': expected a real number, got 'x'"),
            ("seed", "-1", "seed must be a nonnegative integer, got -1"),
            ("bootstrap_gibbs_burn", "2000", "need n_iter > n_burn >= 0, got n_iter=2000, n_burn=2000"),
        ],
        ids=["int-exponent", "int-empty", "seed-text", "gamma-text", "target-text", "seed-negative", "old-key-burn"],
    )
    def test_bad_numeric_values_rejected(self, tmp_path, key, value, message):
        _, area, edges = small_area_csv(tmp_path)
        cfg = write_config(tmp_path, area, edges, **{key: value})
        with pytest.raises(ValidationError, match=re.escape(message)):
            RunConfig.from_file(cfg)

    def test_file_defaults_match_code_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("area_csv = a.csv\nedge_list = e.txt\ncovariate_columns = x\ngamma = 0.5\n")
        from_file = RunConfig.from_file(path)
        in_code = RunConfig(
            area_csv=tmp_path / "a.csv",
            edge_list=tmp_path / "e.txt",
            schema=CsvSchema(covariates=("x",)),
            output_dir=tmp_path / "out",
            gamma=0.5,
        )
        for f in fields(RunConfig):
            assert getattr(from_file, f.name) == getattr(in_code, f.name), f.name


    def test_each_config_default_is_its_field_default(self, tmp_path, monkeypatch):
        # each key with a non-empty default -> the dataclass field it fills
        filled = {
            "output_dir": (RunConfig, "output_dir"),
            "seed": (RunConfig, "seed"),
            "bootstrap_replicates": (RunConfig, "bootstrap_replicates"),
            "bootstrap_gamma_policy": (RunConfig, "bootstrap_gamma_policy"),
            "label_column": (CsvSchema, "label"),
            "y_column": (CsvSchema, "y"),
            "d_column": (CsvSchema, "d"),
            "add_intercept": (CsvSchema, "add_intercept"),
            "gibbs_iterations": (GibbsConfig, "n_iter"),
            "gibbs_burn": (GibbsConfig, "n_burn"),
            "gibbs_thin": (GibbsConfig, "thin"),
        }
        # checked as chain settings, then dropped: they fill no field
        dropped = {"bootstrap_gibbs_iterations", "bootstrap_gibbs_burn", "bootstrap_gibbs_thin"}
        assert filled.keys() | dropped == {key for key, default in _CONFIG_DEFAULTS.items() if default}
        monkeypatch.chdir(tmp_path)  # so that output_dir resolves to the bare default
        Path("run.cfg").write_text("area_csv = a.csv\nedge_list = e.txt\ncovariate_columns = x\ngamma = 0.5\n")
        config = RunConfig.from_file("run.cfg")
        parsed = {RunConfig: config, CsvSchema: config.schema, GibbsConfig: config.gibbs}
        for key, (cls, name) in filled.items():
            (default,) = (f.default for f in fields(cls) if f.name == name)
            assert getattr(parsed[cls], name) == default, key

    def test_entries_are_applied_before_the_checks(self, tmp_path):
        _, area, edges = small_area_csv(tmp_path)
        cfg = write_config(tmp_path, area, edges, gamma_grid="0.1,10,3")
        with pytest.raises(ValidationError, match="exactly one of a fixed gamma or a gamma grid"):
            RunConfig.from_file(cfg)
        config = RunConfig.from_file(cfg, {"gamma": "", "output_dir": "rel"})
        np.testing.assert_allclose(config.gamma_grid, [0.1, 1.0, 10.0], rtol=1e-15)
        assert config.output_dir == Path("rel")  # an entry's path is not joined to the config's directory
        assert RunConfig.output_dir_from_file(cfg, {"output_dir": "rel"}) == Path("rel")
        assert RunConfig.output_dir_from_file(cfg) == tmp_path / "out"
        with pytest.raises(ValidationError, match=re.escape("config key 'seed': expected an integer, got 'x'")):
            RunConfig.from_file(cfg, {"gamma": "", "seed": "x"})
        with pytest.raises(ValidationError, match=re.escape("unknown config keys: ['mystery']")):
            RunConfig.from_file(cfg, {"gamma": "", "mystery": "1"})

    def test_empty_output_dir_rejected(self, tmp_path):
        _, area, edges = small_area_csv(tmp_path)
        cfg = write_config(tmp_path, area, edges, output_dir="")
        with pytest.raises(ValidationError, match="config key 'output_dir' must not be empty"):
            RunConfig.from_file(cfg)


class TestRunPipeline:
    def test_gamma_zero_no_benchmark_passes_bayes_through(self, tmp_path):
        _, area, edges = small_area_csv(tmp_path)
        cfg = write_config(tmp_path, area, edges, gamma="0.0")
        report = run_pipeline(RunConfig.from_file(cfg))
        assert np.array_equal(report.theta_smoothed, report.theta_bayes)
        assert np.array_equal(report.theta_benchmarked, report.theta_bayes)
        assert (tmp_path / "out" / "estimates.csv").exists()
        assert report.metadata["benchmark"] is None

    def test_already_attained_benchmark_is_noop(self, tmp_path):
        data, area, edges = small_area_csv(tmp_path)
        plain_cfg = write_config(tmp_path, area, edges, output_dir="out1")
        plain = run_pipeline(RunConfig.from_file(plain_cfg))
        w = data.benchmark_weights / data.benchmark_weights.sum()
        attained = float(w @ plain.theta_smoothed)
        bench_cfg = write_config(
            tmp_path,
            area,
            edges,
            output_dir="out2",
            benchmark_weight_column="benchmark_weight",
            benchmark_target=repr(attained),
        )
        bench = run_pipeline(RunConfig.from_file(bench_cfg))
        np.testing.assert_allclose(bench.theta_benchmarked, plain.theta_smoothed, atol=1e-10)
        np.testing.assert_allclose(bench.theta_smoothed, plain.theta_smoothed, atol=0)

    def test_weighted_mean_benchmark_hits_target(self, tmp_path):
        data, area, edges = small_area_csv(tmp_path)
        cfg = write_config(
            tmp_path,
            area,
            edges,
            benchmark_weight_column="benchmark_weight",
            benchmark_target="11.0",
            gamma="",
            gamma_grid="0.01,10,8",
        )
        report = run_pipeline(RunConfig.from_file(cfg))
        w = data.benchmark_weights / data.benchmark_weights.sum()
        assert float(w @ report.theta_benchmarked) == pytest.approx(11.0, abs=1e-8)
        assert report.metadata["constraint_residual"] <= 1e-8 * 12.0
        assert report.cv is not None
        assert report.metadata["gamma"] == report.cv.gamma_hat

    def test_ragged_benchmark_matrix_rejected(self, tmp_path):
        data, area, edges = small_area_csv(tmp_path)
        m = data.m
        (tmp_path / "M.csv").write_text(",".join(["1.0"] * m) + "\n" + ",".join(["1.0"] * (m - 1)) + "\n")
        (tmp_path / "t.csv").write_text("10.0\n12.0\n")
        cfg = write_config(
            tmp_path,
            area,
            edges,
            benchmark_matrix_csv="M.csv",
            benchmark_targets_csv="t.csv",
        )
        with pytest.raises(ValidationError, match=rf"M.csv:2: expected {m} entries, got {m - 1}"):
            run_pipeline(RunConfig.from_file(cfg))

    @pytest.mark.parametrize(
        "rows, targets, message",
        [
            (["1.0,x"], "10.0\n", r"M\.csv:1: non-numeric entry$"),
            (["1.0,1.0"], "10.0\n", r"benchmark matrix must have 8 columns, got shape \(1, 2\)$"),
            (["1.0," * 7 + "1.0"] * 2, "10.0\n", r"benchmark matrix has 2 rows but 1 targets$"),
        ],
        ids=["non-numeric", "column-count", "more-rows-than-targets"],
    )
    def test_bad_benchmark_matrix_rejected(self, tmp_path, rows, targets, message):
        _, area, edges = small_area_csv(tmp_path)
        (tmp_path / "M.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "t.csv").write_text(targets)
        cfg = write_config(tmp_path, area, edges, benchmark_matrix_csv="M.csv", benchmark_targets_csv="t.csv")
        with pytest.raises(ValidationError, match=r"^\[stage load\] .*" + message):
            run_pipeline(RunConfig.from_file(cfg))

    @pytest.mark.parametrize("weights", [[-1.0, *[1.0] * 7], [0.0] * 8], ids=["negative", "zero-sum"])
    def test_bad_weight_column_rejected(self, tmp_path, weights):
        data, area, edges = small_area_csv(tmp_path)
        write_area_csv(replace(data, benchmark_weights=np.array(weights)), area)
        cfg = write_config(tmp_path, area, edges, benchmark_weight_column="benchmark_weight", benchmark_target="10")
        message = "[stage load] benchmark weight column must be nonnegative with a positive sum"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            run_pipeline(RunConfig.from_file(cfg))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("target", [False, True], ids=["matrix", "targets"])
    def test_non_finite_benchmark_entry_names_the_line(self, tmp_path, target, bad):
        data, area, edges = small_area_csv(tmp_path)
        row = ["1.0"] * data.m
        if not target:
            row[2] = bad
        (tmp_path / "M.csv").write_text("# weights\n" + ",".join(["1.0"] * data.m) + "\n" + ",".join(row) + "\n")
        (tmp_path / "t.csv").write_text("10.0\n\n" + (bad if target else "12.0") + "\n")
        cfg = write_config(tmp_path, area, edges, benchmark_matrix_csv="M.csv", benchmark_targets_csv="t.csv")
        name = "t.csv" if target else "M.csv"
        with pytest.raises(ValidationError, match=rf"\[stage load\] .*{name}:3: non-finite entry$"):
            run_pipeline(RunConfig.from_file(cfg))

    @pytest.mark.parametrize("output_dir", ["taken", "taken/sub"])
    def test_output_dir_that_is_a_file_fails_before_the_chain(self, tmp_path, monkeypatch, output_dir):
        _, area, edges = small_area_csv(tmp_path)
        (tmp_path / "taken").write_text("a file\n")
        cfg = write_config(tmp_path, area, edges, output_dir=output_dir)
        monkeypatch.setattr("smallarea.pipeline.gibbs_fit", _no_chain)
        with pytest.raises(ValidationError, match=r"\[stage load\] output_dir .*taken exists and is not a directory"):
            run_pipeline(RunConfig.from_file(cfg))
        assert (tmp_path / "taken").read_text() == "a file\n"

    def test_matrix_benchmark_route(self, tmp_path):
        data, area, edges = small_area_csv(tmp_path)
        m = data.m
        M = np.zeros((2, m))
        M[0, : m // 2] = 1.0 / (m // 2)
        M[1, m // 2 :] = 1.0 / (m - m // 2)
        (tmp_path / "M.csv").write_text(
            "\n".join(",".join(repr(float(v)) for v in row) for row in M) + "\n"
        )
        (tmp_path / "t.csv").write_text("10.0\n12.0\n")
        cfg = write_config(
            tmp_path,
            area,
            edges,
            benchmark_matrix_csv="M.csv",
            benchmark_targets_csv="t.csv",
        )
        report = run_pipeline(RunConfig.from_file(cfg))
        np.testing.assert_allclose(M @ report.theta_benchmarked, [10.0, 12.0], atol=1e-8)

    def test_degenerate_matrix_benchmark_fails_numerically(self, tmp_path):
        data, area, edges = small_area_csv(tmp_path)
        m = data.m
        w = np.full(m, 1.0 / m)
        M = np.vstack([w, w])
        M[1, 0] += 1e-8
        (tmp_path / "M.csv").write_text(
            "\n".join(",".join(repr(float(v)) for v in row) for row in M) + "\n"
        )
        (tmp_path / "t.csv").write_text("10.0\n10.0\n")
        cfg = write_config(
            tmp_path,
            area,
            edges,
            benchmark_matrix_csv="M.csv",
            benchmark_targets_csv="t.csv",
        )
        with pytest.raises(NumericalError, match=r"\[stage estimate\] degenerate"):
            run_pipeline(RunConfig.from_file(cfg))

    def test_byte_identical_reruns(self, tmp_path):
        _, area, edges = small_area_csv(tmp_path)
        names = ("estimates.csv", "cv_curve.csv", "bootstrap_mse.csv", "metadata.json")
        blobs = []
        for out in ("outA", "outB"):
            cfg = write_config(
                tmp_path,
                area,
                edges,
                output_dir=out,
                gamma="",
                gamma_grid="0.01,10,6",
                benchmark_weight_column="benchmark_weight",
                benchmark_target="11.0",
                bootstrap_replicates="8",
                bootstrap_gibbs_iterations="200",
                bootstrap_gibbs_burn="50",
            )
            run_pipeline(RunConfig.from_file(cfg))
            blobs.append({n: (tmp_path / out / n).read_bytes() for n in names})
        assert blobs[0] == blobs[1]

    def test_numpy_integer_seed_and_replicates_write_the_same_report(self, tmp_path):
        _, area, edges = small_area_csv(tmp_path)
        cfg = write_config(
            tmp_path,
            area,
            edges,
            bootstrap_replicates="2",
            bootstrap_gibbs_iterations="200",
            bootstrap_gibbs_burn="50",
        )
        base = RunConfig.from_file(cfg)
        names = ("estimates.csv", "bootstrap_mse.csv", "metadata.json")
        blobs = []
        for out, seed, reps in (("plain", 3, 2), ("numpy", np.int64(3), np.int64(2))):
            run_pipeline(replace(base, output_dir=tmp_path / out, seed=seed, bootstrap_replicates=reps))
            blobs.append({n: (tmp_path / out / n).read_bytes() for n in names})
        assert blobs[0] == blobs[1]

    def test_bootstrap_with_refitted_gamma_per_replicate(self, tmp_path):
        _, area, edges = small_area_csv(tmp_path)
        cfg = write_config(
            tmp_path,
            area,
            edges,
            gamma="",
            gamma_grid="0.01,10,4",
            bootstrap_replicates="3",
            bootstrap_gamma_policy="re-cross-validate",
            bootstrap_gibbs_iterations="200",
            bootstrap_gibbs_burn="50",
        )
        report = run_pipeline(RunConfig.from_file(cfg))
        assert report.metadata["bootstrap"]["gamma_policy"] == "re-cross-validate"
        assert np.all(np.isfinite(report.mse))

    def test_bootstrap_stage_produces_mse_table(self, tmp_path):
        _, area, edges = small_area_csv(tmp_path)
        cfg = write_config(
            tmp_path,
            area,
            edges,
            bootstrap_replicates="5",
            bootstrap_gibbs_iterations="200",
            bootstrap_gibbs_burn="50",
        )
        report = run_pipeline(RunConfig.from_file(cfg))
        assert report.mse.shape == (8,)
        assert np.all(report.mse >= 0)
        assert report.metadata["bootstrap"]["n_replicates"] == 5

    def test_stage_name_attached_to_errors(self, tmp_path):
        _, area, edges = small_area_csv(tmp_path)
        edges.write_text("r0,zzz\n")
        cfg = write_config(tmp_path, area, edges)
        with pytest.raises(ValidationError, match=r"\[stage load\] unknown label"):
            run_pipeline(RunConfig.from_file(cfg))

    def test_zero_d_fails_at_load_when_a_bootstrap_is_asked_for(self, tmp_path, monkeypatch):
        # the bootstrap's residual scale is undefined at D = 0; the run says
        # so before the chain rather than after it, and runs without one;
        # the stages before the bootstrap run as asked
        import smallarea.pipeline

        _, area, edges = small_area_csv(tmp_path)
        with open(area, newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows[3]["D"] = "0.0"
        for row in rows:
            row["w"] = "1.0"
        with open(area, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        chains = []
        real = smallarea.pipeline.gibbs_fit
        monkeypatch.setattr(smallarea.pipeline, "gibbs_fit", lambda *a, **k: chains.append(a) or real(*a, **k))
        cfg = RunConfig.from_file(write_config(tmp_path, area, edges, phi_column="w", bootstrap_replicates=5))
        message = "[stage load] bootstrap requires positive sampling variance; D=0 at area 'r3'"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            run_pipeline(cfg)
        assert chains == []
        for stop_after, written in [("gibbs", "fit.csv"), ("cross-validation", "cv_curve.csv")]:
            grid = replace(cfg, gamma=None, gamma_grid=np.geomspace(0.1, 1.0, 3))
            assert run_pipeline(grid, stop_after=stop_after) is None
            assert len(chains) == 1 and (tmp_path / "out" / written).exists()
            chains.clear()
        report = run_pipeline(replace(cfg, bootstrap_replicates=0))
        assert len(chains) == 1 and report.mse is None

    def test_report_run_keeps_no_theta_draws(self, tmp_path, monkeypatch):
        # 2600 retained draws of 200 areas take 2600 x 200 x 8 bytes = 4.16 MB;
        # a run that stops at the report keeps only their running sum, and
        # its gibbs stage (the chain and the exact mean) allocates far less
        import tracemalloc
        from contextlib import contextmanager

        import smallarea.pipeline

        _, area, edges = small_area_csv(tmp_path, m=200)
        cfg = RunConfig.from_file(write_config(tmp_path, area, edges, gibbs_iterations=2700, gibbs_burn=100))
        draw_bytes = 2600 * 200 * 8
        peaks = {}
        stage = smallarea.pipeline._stage

        @contextmanager
        def measured(name):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            with stage(name):
                yield
            peaks[name] = tracemalloc.get_traced_memory()[1] - base

        monkeypatch.setattr(smallarea.pipeline, "_stage", measured)
        tracemalloc.start()
        try:
            report = run_pipeline(cfg)
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(report.theta_bayes))
        assert peaks["gibbs"] < draw_bytes / 2

    def test_isolated_areas_break_cv_without_a_covering_benchmark(self, tmp_path):
        # the US border graph leaves AK and HI isolated: without a benchmark
        # touching them, every held-out problem for those areas is singular
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "\n".join(
                [
                    f"area_csv = {synthetic_dataset_path()}",
                    f"edge_list = {us_state_borders_path()}",
                    "covariate_columns = tax_poverty_rate,nonfiler_rate,foodstamp_rate",
                    "gamma_grid = 0.001,10,4",
                    "gibbs_iterations = 300",
                    "gibbs_burn = 100",
                    f"output_dir = {tmp_path / 'out'}",
                ]
            )
            + "\n"
        )
        with pytest.raises(NumericalError, match="all grid points infeasible") as exc:
            run_pipeline(RunConfig.from_file(cfg))
        assert US_STATE_LABELS.index("AK") == 0 and US_STATE_LABELS.index("HI") == 11
        assert "areas [0, 11] fail at every grid point" in str(exc.value)
        assert str(exc.value).endswith("fail at every grid point (AK, HI)")

    def test_population_benchmark_makes_isolated_areas_identifiable(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "\n".join(
                [
                    f"area_csv = {synthetic_dataset_path()}",
                    f"edge_list = {us_state_borders_path()}",
                    "covariate_columns = tax_poverty_rate,nonfiler_rate,foodstamp_rate",
                    "benchmark_weight_column = benchmark_weight",
                    "benchmark_target = 15.0",
                    "gamma_grid = 0.001,10,4",
                    "gibbs_iterations = 300",
                    "gibbs_burn = 100",
                    f"output_dir = {tmp_path / 'out'}",
                ]
            )
            + "\n"
        )
        report = run_pipeline(RunConfig.from_file(cfg))
        assert np.all(np.isfinite(report.cv.scores))
        assert report.cv.failed_areas == ((),) * 4


class TestLockStepBootstrap:
    """The pipeline's batched bootstrap against the oracle's Bayes step,
    taken one replicate at a time."""

    @staticmethod
    def _config(tmp_path, **overrides):
        values = {
            "area_csv": synthetic_dataset_path(),
            "edge_list": us_state_borders_path(),
            "covariate_columns": "tax_poverty_rate,nonfiler_rate,foodstamp_rate",
            "benchmark_weight_column": "benchmark_weight",
            "benchmark_target": 15.0,
            "gamma_grid": "0.001,10,4",
            "gibbs_iterations": 300,
            "gibbs_burn": 100,
            "bootstrap_replicates": 20,
            "bootstrap_gibbs_iterations": 200,
            "bootstrap_gibbs_burn": 50,
            "seed": 11,
            "output_dir": tmp_path / "out",
            **overrides,
        }
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items() if v is not None))
        return RunConfig.from_file(path)

    @pytest.mark.parametrize("policy", ["fixed", "re-cross-validate"])
    def test_matches_one_chain_per_replicate(self, tmp_path, policy):
        """Each replicate's Bayes step is the oracle's exact mean, taken one
        replicate at a time.  Tolerance, fixed before the first run: the
        oracle bound eps = 1e-9 (1 + |y*|_inf) per mean, at most 4e-8 here,
        moves an estimate by about eps and its squared error by about
        2 |error| eps, so bias and MSE must agree within 1e-7."""
        config = self._config(tmp_path, bootstrap_gamma_policy=policy)
        run_pipeline(config)
        written = read_report(config.output_dir)
        data, omega, phi, constraints, _ = _prepare_inputs(config)
        replicate = reference_replicate(
            data,
            phi,
            omega,
            written.metadata["gamma"],
            constraints,
            config.gamma_grid if policy == "re-cross-validate" else None,
        )
        boot = BootstrapConfig(n_replicates=config.bootstrap_replicates, seed=config.seed)
        want = bootstrap_mse(data, written.theta_benchmarked, per_replicate(replicate), boot)
        for got, ref in ((written.mse, want.mse), (written.bias, want.bias)):
            assert np.all(np.abs(got - ref) <= 1e-7)
        assert written.metadata["bootstrap"]["failed"] == list(want.failed) == []
        assert written.metadata["bootstrap"]["bayes_step"] == "exact"
        assert "gibbs" not in written.metadata["bootstrap"]

    def test_replicates_follow_the_fixed_variance(self, tmp_path):
        """A pinned model variance pins it in every replicate too: each
        replicate's Bayes step is the known-variance conditional mean.
        Tolerance, fixed before the first run: exact_means's fixed-variance
        path agrees with the closed form to about 1e-12 (1 + |y*|_inf), which
        moves bias and MSE by far less than 1e-8; integrating over the
        variance instead moves them by orders of magnitude more."""
        base = self._config(tmp_path, bootstrap_replicates=4)
        config = replace(base, gibbs=GibbsConfig(n_iter=300, n_burn=100, fixed_sigma_u2=1.5))
        run_pipeline(config)
        written = read_report(config.output_dir)
        data, omega, phi, constraints, _ = _prepare_inputs(config)
        args = (data, phi, omega, written.metadata["gamma"], constraints)
        boot = BootstrapConfig(n_replicates=config.bootstrap_replicates, seed=config.seed)
        pinned = per_replicate(reference_replicate(*args, fixed_sigma_u2=1.5))
        want = bootstrap_mse(data, written.theta_benchmarked, pinned, boot)
        for got, ref in ((written.mse, want.mse), (written.bias, want.bias)):
            assert np.all(np.abs(got - ref) <= 1e-8)
        assert written.metadata["bootstrap"]["failed"] == list(want.failed) == []
        # the bound tells the two Bayes steps apart: integrating over the
        # variance lands far outside it
        sampled = bootstrap_mse(data, written.theta_benchmarked, per_replicate(reference_replicate(*args)), boot)
        assert np.max(np.abs(written.mse - sampled.mse)) > 1e-6

    def test_metadata_records_the_chain_gap_to_the_exact_mean(self, tmp_path):
        config = self._config(tmp_path, bootstrap_replicates=0)
        report = run_pipeline(config)
        data = _prepare_inputs(config)[0]
        exact = exact_posterior_mean(data.y, data.D, data.X)
        gap = report.metadata["theta_bayes_max_mc_gap"]
        assert gap > 0.0
        assert abs(gap - np.max(np.abs(report.theta_bayes - exact))) <= 1e-9 * (1.0 + np.abs(data.y).max())

    def test_failed_estimate_fails_only_its_replicate(self, tmp_path, monkeypatch):
        # replicate 2's posterior mean is NaN, or so large that its
        # benchmarked estimate misses the residual bound; inside the one
        # batched estimate only that row fails
        import smallarea.pipeline

        real = smallarea.pipeline.exact_means
        for scale in (np.nan, 1e20):
            batches = []

            def spoil_replicate_2(*args, **kwargs):
                thetas = real(*args, **kwargs)
                if len(thetas) > 1:  # the replicates, not the main chain's check
                    thetas[2] *= scale
                    batches.append(thetas)
                return thetas

            monkeypatch.setattr(smallarea.pipeline, "exact_means", spoil_replicate_2)
            run_dir = tmp_path / str(scale)
            run_dir.mkdir()
            report = run_pipeline(self._config(run_dir, gamma_grid=None, gamma=0.5))
            assert len(batches) == 1 and np.isfinite(batches[0][2]).all() == (scale == 1e20)
            assert report.metadata["bootstrap"]["failed"] == [2]
            assert np.all(np.isfinite(report.mse))

    @pytest.mark.parametrize(
        "policy, benchmarked, gamma",
        [
            ("fixed", True, None),
            ("fixed", False, None),
            ("re-cross-validate", True, None),
            ("re-cross-validate", False, None),
            ("fixed", False, 0.0),
            ("fixed", True, 0.0),
        ],
    )
    def test_replicate_in_a_batch_equals_its_estimate_alone(self, tmp_path, monkeypatch, policy, benchmarked, gamma):
        """Each replicate's estimate from the batched solve is the estimate
        of its posterior mean alone, at its own gamma and through a fresh
        solver of the run's kind, to within 1e-13 relative (bound fixed
        before the first run: the two differ only in the summation order of
        the matrix products); a NaN mean stays one NaN row, and at gamma = 0
        an unconstrained estimate is exactly the mean."""
        import smallarea.pipeline

        means, reports = [], []
        real_means, real_bootstrap = smallarea.pipeline.exact_means, smallarea.pipeline.bootstrap_mse

        def nan_replicate_5(*args, **kwargs):
            thetas = real_means(*args, **kwargs)
            if len(thetas) > 1:  # the replicates, not the main chain's check
                thetas[5] = np.nan
                means.append(thetas.copy())
            return thetas

        def keep_report(*args, **kwargs):
            reports.append(real_bootstrap(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(smallarea.pipeline, "exact_means", nan_replicate_5)
        monkeypatch.setattr(smallarea.pipeline, "bootstrap_mse", keep_report)
        _, area, edges = small_area_csv(tmp_path, m=30)
        overrides = {"bootstrap_replicates": 20, "bootstrap_gamma_policy": policy}
        if gamma is None:
            overrides.update(gamma="", gamma_grid="0.01,1000,6")
        else:
            overrides.update(gamma=gamma)
        if benchmarked:
            overrides.update(benchmark_weight_column="benchmark_weight", benchmark_target=11.0)
        config = RunConfig.from_file(write_config(tmp_path, area, edges, **overrides))
        run_gamma = run_pipeline(config).metadata["gamma"]
        data, omega, phi, constraints, _ = _prepare_inputs(config)
        run_solver = _SigmaSolver if config.gamma is None else _OneGammaSolver
        (thetas,), (boot,) = means, reports
        assert boot.failed == (5,) and np.isnan(boot.replicates[5]).all()
        gammas = set()
        for b in np.flatnonzero(np.isfinite(thetas).all(axis=1)):
            g = run_gamma
            if policy == "re-cross-validate":
                g = cross_validate(thetas[b], phi, omega, config.gamma_grid, constraints).gamma_hat
            gammas.add(g)
            solver = run_solver(phi, omega, constraints)
            if constraints is None:
                alone = smoothed_estimate(thetas[b], phi, solver, g).values
            else:
                alone = benchmarked_estimate(thetas[b], phi, solver, g, constraints).values
            got = boot.replicates[b]
            assert np.max(np.abs(got - alone)) <= 1e-13 * np.max(np.abs(alone))
            if g == 0.0 and constraints is None:
                np.testing.assert_array_equal(got, thetas[b])
        if policy == "re-cross-validate":
            assert len(gammas) > 1  # the replicates fall into more than one gamma batch
        else:
            assert gammas == {run_gamma}

    def test_fixed_gamma_run_factors_sigma_once(self, tmp_path, monkeypatch):
        # at one gamma there is no eigendecomposition: each estimate, and
        # the replicates' one batch, is one LU solve of the m x m system
        factors = count_eigendecompositions(monkeypatch)
        solves = count_solves(monkeypatch, 51)
        report = run_pipeline(self._config(tmp_path, gamma_grid=None, gamma=0.5, bootstrap_replicates=6))
        assert factors == []
        assert solves == [(51, 51)] * 3  # smoothed, benchmarked, the batch
        assert report.metadata["bootstrap"]["failed"] == []

    def test_fixed_gamma_run_estimates_equal_one_off_calls_bitwise(self, tmp_path, monkeypatch):
        # a library call with the plain omega solves one gamma the way a
        # fixed-gamma run does: here one LU solve each, no eigendecomposition
        config = self._config(tmp_path, gamma_grid=None, gamma=0.5, bootstrap_replicates=0)
        report = run_pipeline(config)
        _, omega, phi, constraints, _ = _prepare_inputs(config)
        factors = count_eigendecompositions(monkeypatch)
        solves = count_solves(monkeypatch, 51)
        smoothed = smoothed_estimate(report.theta_bayes, phi, omega.omega, 0.5).values
        benchmarked = benchmarked_estimate(report.theta_bayes, phi, omega.omega, 0.5, constraints).values
        assert factors == [] and solves == [(51, 51)] * 2
        np.testing.assert_array_equal(smoothed, report.theta_smoothed)
        np.testing.assert_array_equal(benchmarked, report.theta_benchmarked)

    def test_re_cross_validated_run_decomposes_once(self, tmp_path, monkeypatch):
        # the main grid, both estimates and every replicate's own grid and
        # estimate share the run's one eigendecomposition
        factors = count_eigendecompositions(monkeypatch)
        config = self._config(tmp_path, bootstrap_gamma_policy="re-cross-validate", bootstrap_replicates=6)
        report = run_pipeline(config)
        assert factors == [(51, 51)]
        assert report.metadata["bootstrap"]["failed"] == []

    def test_fit_makes_no_decomposition(self, tmp_path, monkeypatch):
        factors = count_eigendecompositions(monkeypatch)
        run_pipeline(self._config(tmp_path), stop_after="gibbs")
        assert factors == []


class TestFitAndCvCommands:
    def test_fit_only_writes_bayes_table(self, tmp_path):
        _, area, edges = small_area_csv(tmp_path)
        cfg = write_config(tmp_path, area, edges)
        assert run_pipeline(RunConfig.from_file(cfg), stop_after="gibbs") is None
        text = (tmp_path / "out" / "fit.csv").read_text().splitlines()
        assert text[0] == "label,y,D,theta_bayes,ess"
        assert len(text) == 9

    def test_cv_only_requires_grid(self, tmp_path):
        _, area, edges = small_area_csv(tmp_path)
        cfg = write_config(tmp_path, area, edges)
        with pytest.raises(ValidationError, match="gamma_grid"):
            run_pipeline(RunConfig.from_file(cfg), stop_after="cross-validation")

    def test_cv_only_writes_curve(self, tmp_path):
        _, area, edges = small_area_csv(tmp_path)
        cfg = write_config(tmp_path, area, edges, gamma="", gamma_grid="0.01,10,5")
        assert run_pipeline(RunConfig.from_file(cfg), stop_after="cross-validation") is None
        rows = (tmp_path / "out" / "cv_curve.csv").read_text().splitlines()
        assert rows[0] == "gamma,score,failed_areas"
        assert len(rows) == 6

    def test_unknown_stop_rejected(self, tmp_path):
        _, area, edges = small_area_csv(tmp_path)
        cfg = write_config(tmp_path, area, edges)
        with pytest.raises(ValidationError, match="stop_after"):
            run_pipeline(RunConfig.from_file(cfg), stop_after="estimate")

    def test_stopped_runs_agree_with_the_full_run(self, tmp_path):
        _, area, edges = small_area_csv(tmp_path)
        overrides = dict(
            gamma="",
            gamma_grid="0.01,10,5",
            benchmark_weight_column="benchmark_weight",
            benchmark_target="11.0",
        )
        for out, stop in (("fit", "gibbs"), ("cv", "cross-validation"), ("run", "report")):
            cfg = write_config(tmp_path, area, edges, output_dir=out, **overrides)
            run_pipeline(RunConfig.from_file(cfg), stop_after=stop)
        cv = (tmp_path / "cv" / "cv_curve.csv").read_bytes()
        assert cv == (tmp_path / "run" / "cv_curve.csv").read_bytes()
        fit = read_column(tmp_path / "fit" / "fit.csv", "theta_bayes")
        assert fit == read_column(tmp_path / "run" / "estimates.csv", "theta_bayes")

    def test_master_seed_drives_the_chain(self, tmp_path):
        _, area, edges = small_area_csv(tmp_path)
        thetas = []
        for seed in (5, 6):
            config = RunConfig(
                area_csv=area,
                edge_list=edges,
                schema=CsvSchema(covariates=("x",)),
                output_dir=tmp_path / f"seed{seed}",
                seed=seed,
                gamma=0.5,
                gibbs=GibbsConfig(n_iter=400, n_burn=100),
            )
            thetas.append(run_pipeline(config).theta_bayes)
            metadata = json.loads((tmp_path / f"seed{seed}" / "metadata.json").read_text())
            assert metadata["seed"] == seed
        assert not np.array_equal(thetas[0], thetas[1])



class TestReportIo:
    def _run(self, tmp_path, **overrides):
        _, area, edges = small_area_csv(tmp_path)
        cfg = write_config(tmp_path, area, edges, **overrides)
        config = RunConfig.from_file(cfg)
        return run_pipeline(config), config

    def test_read_report_round_trip(self, tmp_path):
        report, config = self._run(
            tmp_path,
            gamma="",
            gamma_grid="0.01,10,5",
            bootstrap_replicates="4",
            bootstrap_gibbs_iterations="200",
            bootstrap_gibbs_burn="50",
        )
        loaded = read_report(config.output_dir)
        assert loaded.labels == report.labels
        assert np.array_equal(loaded.theta_benchmarked, report.theta_benchmarked)
        assert np.array_equal(loaded.mse, report.mse)
        assert np.array_equal(loaded.cv.grid, report.cv.grid)
        assert loaded.metadata == json.loads(json.dumps(report.metadata))

    def test_compare_reports_bounds_the_gap_of_each_column(self, tmp_path, capsys):
        # tests/compare_reports.py, which bounds a change's report bytes: an
        # identical copy passes, a perturbed cell shows its gap, and a
        # renamed header or a missing file fails
        import shutil

        import compare_reports

        _, config = self._run(
            tmp_path, gamma="", gamma_grid="0.01,10,5", bootstrap_replicates="4", bootstrap_gibbs_burn="50"
        )
        old, new = config.output_dir, tmp_path / "copy"
        shutil.copytree(old, new)
        assert sorted(p.name for p in new.iterdir()) == [
            "bootstrap_mse.csv", "cv_curve.csv", "estimates.csv", "metadata.json"
        ]
        assert compare_reports.main([str(old), str(new)]) == 0
        assert "estimates.csv:theta_benchmarked  max gap 0  differing 0/8\n" in capsys.readouterr().out

        path = new / "estimates.csv"
        rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
        x = float(rows[3][5])
        rows[3][5] = repr(x + 3e-10 * (1.0 + abs(x)))
        path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
        assert compare_reports.main([str(old), str(new)]) == 1
        assert "estimates.csv:theta_benchmarked  max gap 3e-10  differing 1/8\n" in capsys.readouterr().out
        assert compare_reports.main([str(old), str(new), "--bound", "1e-9"]) == 0
        assert "estimates.csv:theta_smoothed  max gap 0  differing 0/8\n" in capsys.readouterr().out

        rows[0][5] = "theta_bm"
        path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
        assert compare_reports.main([str(old), str(new), "--bound", "1"]) == 1
        assert "estimates.csv: header differs" in capsys.readouterr().out
        path.unlink()
        assert compare_reports.main([str(old), str(new), "--bound", "1"]) == 1
        assert f"estimates.csv: only in {old}\n" in capsys.readouterr().out

    def test_plot_data_scatter(self, tmp_path):
        report, config = self._run(tmp_path)
        path = emit_plot_data(report, "scatter_constrained_vs_bayes", config.output_dir)
        rows = path.read_text().splitlines()
        assert rows[0] == "label,bayes,constrained"
        assert len(rows) == 9

    def test_plot_data_by_group(self, tmp_path):
        report, config = self._run(tmp_path, group_column="group")
        path = emit_plot_data(report, "scatter_by_group", config.output_dir)
        rows = path.read_text().splitlines()
        assert rows[0] == "label,group,series,bayes,value"
        assert len(rows) == 17  # two series, eight areas

    def test_plot_data_group_requires_groups(self, tmp_path):
        report, config = self._run(tmp_path)
        stripped = type(report)(
            labels=report.labels,
            y=report.y,
            D=report.D,
            theta_bayes=report.theta_bayes,
            theta_smoothed=report.theta_smoothed,
            theta_benchmarked=report.theta_benchmarked,
            groups=None,
            cv=None,
            mse=None,
            bias=None,
            metadata=report.metadata,
        )
        with pytest.raises(ValidationError, match="group"):
            emit_plot_data(stripped, "scatter_by_group", config.output_dir)
        assert not (config.output_dir / "plot_scatter_by_group.csv").exists()

    def test_plot_data_mse_requires_bootstrap(self, tmp_path):
        report, config = self._run(tmp_path)
        with pytest.raises(ValidationError, match="bootstrap"):
            emit_plot_data(report, "mse_by_area", config.output_dir)
        assert not (config.output_dir / "plot_mse_by_area.csv").exists()

    def test_plot_data_mse(self, tmp_path):
        report, config = self._run(
            tmp_path,
            bootstrap_replicates="4",
            bootstrap_gibbs_iterations="200",
            bootstrap_gibbs_burn="50",
        )
        path = emit_plot_data(report, "mse_by_area", config.output_dir)
        rows = path.read_text().splitlines()
        assert rows[0] == "label,mse,bias"
        assert len(rows) == 9
        assert all(float(r.split(",")[1]) >= 0 for r in rows[1:])

    def test_plot_data_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match=r"^unknown plot kind 'histogram'; choose from \("):
            emit_plot_data(self._hand_built_report(), "histogram", tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _hand_built_report():
        """A 3-area report with every report file, built without the sampler."""
        return EstimateReport(
            labels=("a", "b", "c"),
            y=np.array([0.1, 2.0, -3.5]),
            D=np.array([1.0, 0.25, 2.0]),
            theta_bayes=np.array([1.0 / 3.0, 2.0, -3.0]),
            theta_smoothed=np.array([0.5, 1e-20, 123456789.0]),
            theta_benchmarked=np.array([0.2, 2.5, -1.0 / 7.0]),
            groups=None,
            cv=CvCurve(np.array([0.1, 1.0]), np.array([np.inf, 0.75]), ((0, 2), ())),
            mse=np.array([0.01, 2.0, 0.5]),
            bias=np.array([-0.1, 0.0, 1.0 / 3.0]),
            metadata={"seed": 0},
        )

    def test_report_format(self, tmp_path):
        """The byte format of the report tables, independent of the sampler."""
        report = self._hand_built_report()
        out = write_report(report, tmp_path / "out")
        assert (out / "estimates.csv").read_bytes() == (
            b"label,y,D,theta_bayes,theta_smoothed,theta_benchmarked,group\n"
            b"a,0.10000000000000001,1,0.33333333333333331,0.5,0.20000000000000001,\n"
            b"b,2,0.25,2,9.9999999999999995e-21,2.5,\n"
            b"c,-3.5,2,-3,123456789,-0.14285714285714285,\n"
        )
        assert (out / "cv_curve.csv").read_bytes() == (
            b"gamma,score,failed_areas\n"
            b"0.10000000000000001,inf,0;2\n"
            b"1,0.75,\n"
        )
        assert (out / "bootstrap_mse.csv").read_bytes() == (
            b"label,mse,bias\n"
            b"a,0.01,-0.10000000000000001\n"
            b"b,2,0\n"
            b"c,0.5,0.33333333333333331\n"
        )
        assert (out / "metadata.json").read_bytes() == b'{\n  "seed": 0\n}\n'

        loaded = read_report(out)
        assert loaded.labels == report.labels
        assert loaded.groups is None
        for name in ("y", "D", "theta_bayes", "theta_smoothed", "theta_benchmarked", "mse", "bias"):
            assert np.array_equal(getattr(loaded, name), getattr(report, name)), name
        assert np.array_equal(loaded.cv.grid, report.cv.grid)
        assert np.array_equal(loaded.cv.scores, report.cv.scores)
        assert loaded.cv.failed_areas == ((0, 2), ())
        assert loaded.cv.gamma_hat == 1.0
        assert loaded.metadata == {"seed": 0}

        plot = emit_plot_data(report, "mse_by_area", out)
        assert plot.read_bytes() == (out / "bootstrap_mse.csv").read_bytes()

    @pytest.mark.parametrize(
        "name, old, new, message",
        [
            pytest.param(
                "estimates.csv", ",group\n", "\n", r"missing column 'group' in .*estimates\.csv",
                id="missing-column",
            ),
            pytest.param(
                "estimates.csv", "b,2,0.25,", "b,2,oops,",
                r"'oops' in column 'D', row 3 of .*estimates\.csv",
                id="non-numeric-estimate",
            ),
            pytest.param(
                "cv_curve.csv", "1,0.75,", "1,high,",
                r"'high' in column 'score', row 3 of .*cv_curve\.csv",
                id="non-numeric-cv-score",
            ),
            pytest.param(
                "cv_curve.csv", "inf,0;2", "inf,0;x",
                r"non-integer area index in column 'failed_areas' of .*cv_curve\.csv",
                id="non-integer-failed-area",
            ),
            pytest.param(
                "bootstrap_mse.csv", "b,2,0\n", "b,2,zero\n",
                r"'zero' in column 'bias', row 3 of .*bootstrap_mse\.csv",
                id="non-numeric-mse-bias",
            ),
            pytest.param(
                "metadata.json", "}", "", r"metadata\.json is not valid JSON",
                id="unparsable-metadata",
            ),
            pytest.param(
                "metadata.json", '{\n  "seed": 0\n}', "[0]", r"metadata\.json must hold a JSON object",
                id="metadata-not-an-object",
            ),
            pytest.param(
                "cv_curve.csv", "0.10000000000000001,inf,0;2\n1,0.75,\n", "",
                r"cv_curve\.csv has no data rows",
                id="empty-cv-curve",
            ),
            pytest.param(
                "estimates.csv",
                "a,0.10000000000000001,1,0.33333333333333331,0.5,0.20000000000000001,\n"
                "b,2,0.25,2,9.9999999999999995e-21,2.5,\n"
                "c,-3.5,2,-3,123456789,-0.14285714285714285,\n",
                "",
                r"estimates\.csv has no data rows",
                id="empty-estimates",
            ),
            pytest.param(
                "bootstrap_mse.csv", "c,0.5,0.33333333333333331\n", "", "report column mse must have 3 rows",
                id="short-bootstrap-table",
            ),
            pytest.param(
                "cv_curve.csv", "1,0.75,\n", "1,0.75\n", r"cv_curve\.csv:3: expected 3 cells, got 2",
                id="short-row",
            ),
            pytest.param(
                "bootstrap_mse.csv", "b,2,0\n", "b,2,0,7\n", r"bootstrap_mse\.csv:3: expected 3 cells, got 4",
                id="long-row",
            ),
            pytest.param(
                "metadata.json", '{\n  "seed": 0\n}', '{"benchmark": {}, "constraint_residual": 0}',
                "metadata key 'benchmark' must hold a 'target' entry",
                id="benchmark-without-target",
            ),
            pytest.param(
                "metadata.json", '{\n  "seed": 0\n}', '{"benchmark": {"target": "x"}, "constraint_residual": 0}',
                "metadata key 'benchmark' must hold a numeric 'target'",
                id="non-numeric-benchmark-target",
            ),
            pytest.param(
                "metadata.json", '{\n  "seed": 0\n}', '{"benchmark": {"target": 1}, "constraint_residual": "x"}',
                "metadata key 'constraint_residual' must be a nonnegative number",
                id="non-numeric-constraint-residual",
            ),
            pytest.param(
                "metadata.json", '{\n  "seed": 0\n}', '{"benchmark": {"target": 1}, "constraint_residual": NaN}',
                "metadata key 'constraint_residual' must be a nonnegative number",
                id="nan-constraint-residual",
            ),
            pytest.param(
                "cv_curve.csv", "1,0.75,", "1,inf,", "^at least one grid point must have a finite score$",
                id="no-finite-cv-score",
            ),
            # values that run_pipeline never writes
            pytest.param(
                "cv_curve.csv", "1,0.75,", "1,0.75,-5", "^a grid point that lists failed areas must score \\+inf and list no negative index$",
                id="negative-failed-area",
            ),
            pytest.param(
                "cv_curve.csv", "1,0.75,", "1,0.75,1", "^a grid point that lists failed areas must score \\+inf and list no negative index$",
                id="failed-area-with-a-finite-score",
            ),
            pytest.param(
                "cv_curve.csv", "1,0.75,", "1,-1e300,", "^scores may not be NaN or negative$", id="negative-cv-score",
            ),
            pytest.param(
                "cv_curve.csv", "inf,0;2", "inf,0;3",
                "^failed area indices of the CV curve must be below the 3 areas$",
                id="failed-area-beyond-m",
            ),
            pytest.param(
                "estimates.csv", "a,0.10000000000000001,", "a,inf,", "^report column y contains non-finite entries$",
                id="infinite-y",
            ),
            pytest.param(
                "estimates.csv", "0.5,0.20000000000000001,", "0.5,nan,",
                "^report column theta_benchmarked contains non-finite entries$",
                id="nan-theta-benchmarked",
            ),
            pytest.param(
                "estimates.csv", "b,2,0.25,", "b,2,-2,", "^report columns D and mse must be nonnegative$", id="negative-D",
            ),
            pytest.param(
                "estimates.csv", "b,2,0.25,", "b,2,nan,", "^report column D contains non-finite entries$", id="nan-D",
            ),
            pytest.param(
                "bootstrap_mse.csv", "a,0.01,", "a,-3,", "^report columns D and mse must be nonnegative$",
                id="negative-mse",
            ),
            pytest.param(
                "bootstrap_mse.csv", "a,0.01,", "a,nan,", "^report column mse must have 3 rows, none NaN$", id="nan-mse",
            ),
            pytest.param(
                "bootstrap_mse.csv", "b,2,0\n", "b,2,nan\n", "^report column bias must have 3 rows, none NaN$", id="nan-bias",
            ),
        ],
    )
    def test_malformed_report_file_rejected(self, tmp_path, name, old, new, message):
        out = write_report(self._hand_built_report(), tmp_path / "out")
        path = out / name
        text = path.read_text(encoding="utf-8")
        assert old in text
        path.write_text(text.replace(old, new), encoding="utf-8")
        with pytest.raises(ValidationError, match=message):
            read_report(out)

    @pytest.mark.parametrize("fault", ["name-too-long", "file-in-the-way"])
    @pytest.mark.parametrize(
        "write",
        [write_report, lambda report, out: emit_plot_data(report, "mse_by_area", out)],
        ids=["write_report", "emit_plot_data"],
    )
    def test_a_directory_that_cannot_be_made_is_a_validation_error(self, tmp_path, write, fault):
        if fault == "name-too-long":
            out, reason = tmp_path / ("o" * 300), "File name too long"
        else:
            (tmp_path / "taken").write_text("a file\n")
            out, reason = tmp_path / "taken" / "out", "Not a directory"
        message = f"cannot create directory {out}: {reason}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            write(self._hand_built_report(), out)

    @pytest.mark.parametrize("name", ["estimates.csv", "metadata.json", "cv_curve.csv"])
    def test_unreadable_report_file_rejected(self, tmp_path, name):
        out = write_report(self._hand_built_report(), tmp_path / "out")
        path = out / name
        path.write_bytes(path.read_bytes() + b"\xff\n")
        with pytest.raises(ValidationError, match=rf"{name}:\d+: report file is not valid UTF-8"):
            read_report(out)
        path.unlink()
        path.mkdir()
        with pytest.raises(ValidationError, match=rf"cannot read report file .*{name}"):
            read_report(out)
