"""Run configuration and the staged estimation pipeline.

:func:`run_pipeline` runs load -> gibbs -> (optional) cross-validation ->
estimate -> (optional) bootstrap -> write, and writes a report:
``estimates.csv`` (one row per area), ``cv_curve.csv``, ``bootstrap_mse.csv``
and ``metadata.json`` in the output directory; ``stop_after`` ends the run
after the sampler or the selection curve instead.  Everything is driven by
a flat key/value config file (``key = value`` lines, ``#`` comments);
unknown and repeated keys are rejected.  Every input file is read by
:func:`smallarea.exceptions._read_input`.  This module fixes the columns
of each report and plot-data table; :mod:`smallarea.datasets` writes and
reads them all in one format (17-significant-digit floats, so a fixed
seed yields byte-identical outputs) and also holds area CSV ingestion.

The config keys and their defaults are ``_CONFIG_DEFAULTS`` (the README
describes each); ``gamma`` and ``gamma_grid`` (``lo,hi,n``) are exclusive.
The bootstrap replicates' Bayes step is the exact posterior mean
(:func:`smallarea.fay_herriot.exact_means`) under the main fit's model, so
the three ``bootstrap_gibbs_*`` keys are accepted for old configs and
checked, but store nothing.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .bootstrap import BootstrapConfig, _check_sampling_variance, bootstrap_mse
from .datasets import CsvSchema, _read_table, _write_table, load_area_csv
from .estimators import (
    ConstraintSet,
    _batch_estimates,
    _OneGammaSolver,
    _residual_bound,
    _SigmaSolver,
    benchmarked_estimate,
    smoothed_estimate,
)
# Not called here; the benchmark's tracer looks this name up in this module.
from .estimators import benchmarked_estimate_single  # noqa: F401
from .exceptions import NumericalError, ValidationError, _input_lines, _integer, _read_input, _real, _vector
from .fay_herriot import GibbsConfig, exact_means, gibbs_fit
from .selection import CvCurve, _grid, cross_validate, default_gamma_grid
from .similarity import build_omega, load_adjacency, read_edge_list

__all__ = [
    "EstimateReport",
    "PLOT_KINDS",
    "RunConfig",
    "emit_plot_data",
    "read_report",
    "run_pipeline",
]

PLOT_KINDS = ("scatter_constrained_vs_bayes", "scatter_by_group", "mse_by_area")

GAMMA_POLICIES = ("fixed", "re-cross-validate")

# numeric per-area columns of EstimateReport, in estimates.csv order
_REPORT_COLUMNS = ("y", "D", "theta_bayes", "theta_smoothed", "theta_benchmarked")


@contextmanager
def _stage(name: str):
    """Tag validation/numerical errors with the pipeline stage they came from."""
    try:
        yield
    except (ValidationError, NumericalError) as exc:
        raise type(exc)(f"[stage {name}] {exc}") from exc


# ---------------------------------------------------------------------------
# Run configuration


# a key whose default is None is required
_CONFIG_DEFAULTS: dict[str, str | None] = {
    "area_csv": None,
    "edge_list": None,
    "output_dir": "out",
    "seed": "0",
    "label_column": "label",
    "y_column": "y",
    "d_column": "D",
    "covariate_columns": None,
    "phi_column": "",
    "group_column": "",
    "benchmark_weight_column": "",
    "add_intercept": "true",
    "benchmark_target": "",
    "benchmark_matrix_csv": "",
    "benchmark_targets_csv": "",
    "benchmark_provenance": "",
    "gamma": "",
    "gamma_grid": "",
    "gibbs_iterations": "10000",
    "gibbs_burn": "2000",
    "gibbs_thin": "1",
    "bootstrap_replicates": "0",
    "bootstrap_gamma_policy": "fixed",
    "bootstrap_gibbs_iterations": "2000",
    "bootstrap_gibbs_burn": "500",
    "bootstrap_gibbs_thin": "1",
}


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValidationError(f"config key {key!r}: expected true/false, got {raw!r}")


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run needs; ``_CONFIG_DEFAULTS`` lists the
    config-file key names.  ``seed`` seeds the main chain and the bootstrap
    streams; the ``seed`` field of ``gibbs`` is ignored.  ``gibbs`` is the
    run's one Bayes step: it sets the main chain, and its
    ``fixed_sigma_u2``, when set, pins the model variance of the chain, of
    the chain's exact-mean check and of every bootstrap replicate.  Only
    contradicting settings are rejected here; :func:`run_pipeline` checks
    that a run has the settings its stops read."""

    area_csv: Path
    edge_list: Path
    schema: CsvSchema
    output_dir: Path = Path("out")
    seed: int = 0
    gamma: float | None = None
    gamma_grid: np.ndarray | None = None
    benchmark_target: float | None = None
    benchmark_matrix_csv: Path | None = None
    benchmark_targets_csv: Path | None = None
    benchmark_provenance: str = ""
    gibbs: GibbsConfig = field(default_factory=GibbsConfig)
    bootstrap_replicates: int = 0
    bootstrap_gamma_policy: str = "fixed"

    def __post_init__(self):
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0))
        replicates = _integer("bootstrap_replicates", self.bootstrap_replicates, 0)
        object.__setattr__(self, "bootstrap_replicates", replicates)
        if self.gamma is not None and self.gamma_grid is not None:
            raise ValidationError("exactly one of a fixed gamma or a gamma grid must be chosen")
        if self.gamma is not None:
            object.__setattr__(self, "gamma", _real("gamma", self.gamma, 0))
        elif self.gamma_grid is not None:
            object.__setattr__(self, "gamma_grid", _grid("gamma_grid", self.gamma_grid))
        if self.benchmark_target is not None:
            object.__setattr__(self, "benchmark_target", _real("benchmark_target", self.benchmark_target))
        uses_weight = self.schema.benchmark_weight is not None
        uses_matrix = self.benchmark_matrix_csv is not None
        if uses_weight and uses_matrix:
            raise ValidationError(
                "choose one benchmark form: a weight column or a constraint matrix file"
            )
        if self.benchmark_target is not None and not uses_weight:
            raise ValidationError("benchmark_target requires benchmark_weight_column")
        if uses_matrix and self.benchmark_targets_csv is None:
            raise ValidationError("benchmark_matrix_csv requires benchmark_targets_csv")
        if self.benchmark_targets_csv is not None and not uses_matrix:
            raise ValidationError("benchmark_targets_csv requires benchmark_matrix_csv")
        if self.bootstrap_gamma_policy not in GAMMA_POLICIES:
            raise ValidationError(
                f"bootstrap_gamma_policy must be one of {GAMMA_POLICIES}"
            )
        if (
            self.bootstrap_replicates > 0
            and self.bootstrap_gamma_policy == "re-cross-validate"
            and self.gamma is not None
        ):
            raise ValidationError(
                "bootstrap_gamma_policy = re-cross-validate requires a gamma_grid"
            )

    @classmethod
    def from_file(cls, path: str | Path, entries: dict[str, str] | None = None) -> "RunConfig":
        """Parse a flat key/value config file; unknown and repeated keys are
        errors.  ``entries`` (key -> value text, as the CLI's flags give
        them) replace the file's values before any is parsed or checked; a
        relative ``output_dir`` entry is relative to the working directory."""
        path, entries = Path(path), entries or {}
        values = _config_values(path, entries)
        missing = [k for k, default in _CONFIG_DEFAULTS.items() if default is None and not values[k]]
        if missing:
            raise ValidationError(f"config {path} missing required keys: {', '.join(missing)}")
        covariates = tuple(c.strip() for c in values["covariate_columns"].split(",") if c.strip())
        if not covariates:
            raise ValidationError(
                f"config key 'covariate_columns' must name a column, got {values['covariate_columns']!r}"
            )
        schema = CsvSchema(
            label=values["label_column"],
            y=values["y_column"],
            d=values["d_column"],
            covariates=covariates,
            phi=values["phi_column"] or None,
            benchmark_weight=values["benchmark_weight_column"] or None,
            group=values["group_column"] or None,
            add_intercept=_parse_bool(values["add_intercept"], "add_intercept"),
        )
        resolve = partial(_config_path, path, entries, values)

        def number(key: str, kind: type = int):
            """Value of a numeric key; one that does not parse is a ValidationError."""
            try:
                return kind(values[key])
            except ValueError:
                expected = "an integer" if kind is int else "a real number"
                raise ValidationError(
                    f"config key {key!r}: expected {expected}, got {values[key]!r}"
                ) from None

        def chain(prefix: str) -> GibbsConfig:
            """The chain settings of the keys ``<prefix>iterations``,
            ``burn`` and ``thin``; a refused value names its keys."""
            keys = {"n_iter": f"{prefix}iterations", "n_burn": f"{prefix}burn", "thin": f"{prefix}thin"}
            settings = {name: number(key) for name, key in keys.items()}
            try:
                return GibbsConfig(**settings)
            except ValidationError as exc:
                named = [repr(key) for name, key in keys.items() if name in str(exc)]
                raise ValidationError(f"config key{'s' * (len(named) > 1)} {', '.join(named)}: {exc}") from None

        grid, raw = None, values["gamma_grid"]
        if raw:
            try:
                low, high, num = raw.split(",")
                low, high, num = float(low), float(high), int(num)
            except ValueError:  # not three fields, or one that does not parse
                raise ValidationError(f"gamma_grid must be 'low,high,n', got {raw!r}") from None
            try:
                grid = default_gamma_grid(low, high, num)
            except ValidationError as exc:
                raise ValidationError(f"config key 'gamma_grid': {exc}") from None
        # the bootstrap_gibbs_* keys of old configs are checked as chain
        # settings and dropped: the replicates' Bayes step is ``gibbs``'s
        chain("bootstrap_gibbs_")
        return cls(
            area_csv=resolve("area_csv"),
            edge_list=resolve("edge_list"),
            schema=schema,
            output_dir=resolve("output_dir"),
            seed=number("seed"),
            gamma=number("gamma", float) if values["gamma"] else None,
            gamma_grid=grid,
            benchmark_target=number("benchmark_target", float) if values["benchmark_target"] else None,
            benchmark_matrix_csv=resolve("benchmark_matrix_csv"),
            benchmark_targets_csv=resolve("benchmark_targets_csv"),
            benchmark_provenance=values["benchmark_provenance"],
            gibbs=chain("gibbs_"),
            bootstrap_replicates=number("bootstrap_replicates"),
            bootstrap_gamma_policy=values["bootstrap_gamma_policy"],
        )

    @staticmethod
    def output_dir_from_file(path: str | Path, entries: dict[str, str] | None = None) -> Path:
        """:meth:`from_file`'s ``output_dir``, without parsing or checking the other settings."""
        path, entries = Path(path), entries or {}
        return _config_path(path, entries, _config_values(path, entries), "output_dir")


def _config_values(path: Path, entries: dict[str, str]) -> dict[str, str]:
    """Each config key's value text: ``entries`` over the file's lines over
    ``_CONFIG_DEFAULTS``.  A line that is not ``key = value``, an unknown or
    repeated key and an empty ``output_dir`` are ValidationErrors."""
    values = dict(_CONFIG_DEFAULTS)
    first_line: dict[str, int] = {}
    for lineno, line in _input_lines(path, "config file"):
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        if key not in _CONFIG_DEFAULTS:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ValidationError(f"{path}:{lineno}: config key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        values[key] = value
    values.update(entries)
    if len(values) > len(_CONFIG_DEFAULTS):
        raise ValidationError(f"unknown config keys: {sorted(values.keys() - _CONFIG_DEFAULTS.keys())}")
    if not values["output_dir"]:
        raise ValidationError("config key 'output_dir' must not be empty")
    return values


def _config_path(path: Path, entries: dict[str, str], values: dict[str, str], key: str) -> Path | None:
    """A path key's value, relative to the config file (an entry's: the cwd) unless absolute."""
    return (Path() if key in entries else path.parent) / values[key] if values[key] else None


# ---------------------------------------------------------------------------
# Report


@dataclass(frozen=True)
class EstimateReport:
    """Per-area estimate table plus the CV curve and bootstrap summaries.

    Only what :func:`run_pipeline` can write is accepted: finite y and
    thetas, a finite nonnegative D, an mse that is nonnegative (+inf
    allowed), a bias that is not NaN, and CV failed areas among the m
    areas."""

    labels: tuple[str, ...]
    y: np.ndarray
    D: np.ndarray
    theta_bayes: np.ndarray
    theta_smoothed: np.ndarray
    theta_benchmarked: np.ndarray
    groups: tuple[str, ...] | None
    cv: CvCurve | None
    mse: np.ndarray | None
    bias: np.ndarray | None
    metadata: dict

    def __post_init__(self):
        m = len(self.labels)
        for name in _REPORT_COLUMNS:
            _vector(f"report column {name}", getattr(self, name), m)
        for name in ("mse", "bias"):
            v = getattr(self, name)
            if v is not None and (np.asarray(v).shape != (m,) or np.any(np.isnan(v))):
                raise ValidationError(f"report column {name} must have {m} rows, none NaN")
        if np.any(np.asarray(self.D) < 0) or (self.mse is not None and np.any(np.asarray(self.mse) < 0)):
            raise ValidationError("report columns D and mse must be nonnegative")
        if self.cv is not None and any(i >= m for failed in self.cv.failed_areas for i in failed):
            raise ValidationError(f"failed area indices of the CV curve must be below the {m} areas")
        bench = self.metadata.get("benchmark")
        if bench is not None:
            if not isinstance(bench, dict) or "target" not in bench:
                raise ValidationError("metadata key 'benchmark' must hold a 'target' entry")
            residual = self.metadata.get("constraint_residual")
            if residual is None:
                raise ValidationError("benchmarked reports must record the constraint residual")
            try:
                bound = _residual_bound(np.asarray(bench["target"], dtype=float))
            except (TypeError, ValueError):
                raise ValidationError("metadata key 'benchmark' must hold a numeric 'target'") from None
            if isinstance(residual, bool) or not isinstance(residual, (int, float)) or not residual >= 0:
                raise ValidationError("metadata key 'constraint_residual' must be a nonnegative number")
            if residual > bound:
                raise ValidationError(f"recorded constraint residual {residual} exceeds tolerance")

    @property
    def m(self) -> int:
        return len(self.labels)


def _read_numeric_rows(path: Path, what: str, width: int | None = None) -> np.ndarray:
    """Comma-separated finite numeric rows of input file ``what``, skipping
    blank and ``#`` lines; every row has ``width`` entries, or as many as the first."""
    rows = []
    for lineno, line in _input_lines(path, what):
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: non-numeric entry") from None
        if not all(map(math.isfinite, row)):
            raise ValidationError(f"{path}:{lineno}: non-finite entry")
        width = len(row) if width is None else width
        if len(row) != width:
            raise ValidationError(f"{path}:{lineno}: expected {width} entries, got {len(row)}")
        rows.append(row)
    return np.asarray(rows, dtype=float)


def _load_benchmark_matrix(config: RunConfig, m: int) -> ConstraintSet:
    M = _read_numeric_rows(config.benchmark_matrix_csv, "benchmark matrix")
    t = _read_numeric_rows(config.benchmark_targets_csv, "benchmark targets", width=1).ravel()
    if M.ndim != 2 or M.shape[1] != m:
        raise ValidationError(
            f"benchmark matrix must have {m} columns, got shape {M.shape}"
        )
    if t.size != M.shape[0]:
        raise ValidationError(
            f"benchmark matrix has {M.shape[0]} rows but {t.size} targets"
        )
    return ConstraintSet(M, t)


def _prepare_inputs(config: RunConfig, benchmark: bool = True):
    """Load stage: dataset, penalty matrix, loss weights, and, when
    ``benchmark``, the constraints and their metadata (else None)."""
    data = load_area_csv(config.area_csv, config.schema)
    edges = read_edge_list(config.edge_list)
    spec = load_adjacency(edges, data.labels)
    omega = build_omega(spec)
    constraints, bench_meta = _load_constraints(config, data) if benchmark else (None, None)
    return data, omega, data.phi, constraints, bench_meta


def _load_constraints(config: RunConfig, data):
    """The run's benchmark constraints and their metadata; (None, None) without a benchmark."""
    if config.benchmark_target is not None:
        raw = data.benchmark_weights
        if np.any(raw < 0) or raw.sum() <= 0:
            raise ValidationError("benchmark weight column must be nonnegative with a positive sum")
        weights = raw / raw.sum()
        constraints = ConstraintSet(weights[np.newaxis, :], np.array([config.benchmark_target]))
        return constraints, {
            "kind": "weighted-mean",
            "target": config.benchmark_target,
            "weight_column_sum": float(raw.sum()),
            "provenance": config.benchmark_provenance,
        }
    if config.benchmark_matrix_csv is not None:
        constraints = _load_benchmark_matrix(config, data.m)
        return constraints, {
            "kind": "matrix",
            "target": [float(v) for v in constraints.t],
            "provenance": config.benchmark_provenance,
        }
    return None, None


def _base_metadata(config: RunConfig) -> dict:
    gibbs = config.gibbs
    return {
        "smallarea_version": __version__,
        "numpy_version": np.__version__,
        "seed": config.seed,
        "gibbs": {"n_iter": gibbs.n_iter, "n_burn": gibbs.n_burn, "thin": gibbs.thin},
    }


def run_pipeline(config: RunConfig, stop_after: str = "report") -> EstimateReport | None:
    """Execute the pipeline up to ``stop_after`` and write its files.

    ``"report"`` writes the report files and returns the report.
    ``"gibbs"`` writes ``fit.csv``, and ``"cross-validation"`` (which needs
    a gamma grid) writes ``cv_curve.csv``; both also write
    ``metadata.json`` and return None.  The stops after ``"gibbs"`` need a
    gamma choice and a weight column's target, checked before the chain.
    The output directory is made before the chain too, so a run that
    fails later leaves it behind, empty if nothing was written.
    Deterministic for a fixed config and seed: every stream derives from
    the master seed.
    """
    stops = ("gibbs", "cross-validation", "report")
    if stop_after not in stops:
        raise ValidationError(f"stop_after must be one of {stops}, got {stop_after!r}")
    if stop_after == "cross-validation" and config.gamma_grid is None:
        raise ValidationError("the cv command requires a gamma_grid (not a fixed gamma)")
    if stop_after != "gibbs":  # the stops that select gamma and benchmark
        if config.gamma is None and config.gamma_grid is None:
            raise ValidationError("exactly one of a fixed gamma or a gamma grid must be chosen")
        if config.schema.benchmark_weight is not None and config.benchmark_target is None:
            raise ValidationError("a benchmark_target is required with a weight column")
    out = Path(config.output_dir)
    metadata = _base_metadata(config)

    with _stage("load"):
        # a file in output_dir's way is named before the inputs are read;
        # os.path.exists is False, not an OSError, for a name too long
        base = next(p for p in (out, *out.parents) if os.path.exists(p))
        if not base.is_dir():
            raise ValidationError(f"output_dir {out}: {base} exists and is not a directory")
        smooths = stop_after != "gibbs"  # the stops that benchmark and solve with Sigma
        data, omega, phi, constraints, bench_meta = _prepare_inputs(config, smooths)
        if stop_after == "report" and config.bootstrap_replicates > 0:  # fail before the chain
            _check_sampling_variance(data)
        if smooths:
            # every estimator call of the run, bootstrap included, solves
            # with this one (phi, omega, constraints): a grid's solver takes
            # one eigendecomposition for all its gammas, a fixed gamma's
            # solves without one
            solver = (_SigmaSolver if config.gamma is None else _OneGammaSolver)(phi, omega, constraints)
        _make_dir(out)

    with _stage("gibbs"):
        # only fit.csv reads the theta draws, for their ESS; the other stops
        # take the same mean from a chain that keeps only the draws' sum
        chain = replace(config.gibbs, seed=config.seed)
        summary = gibbs_fit(data, chain, keep_theta_draws=stop_after == "gibbs")
        exact = exact_means(data, data.y[np.newaxis, :], config.gibbs.fixed_sigma_u2)[0]
    theta = summary.theta_bayes
    gap = float(np.max(np.abs(theta - exact)))
    # the chain's largest Monte Carlo error against the exact mean (None if that failed)
    metadata["theta_bayes_max_mc_gap"] = gap if np.isfinite(gap) else None
    if stop_after == "gibbs":
        metadata["sigma_u2_mean"] = summary.sigma_u2_mean
        fit = {"label": data.labels, "y": data.y, "D": data.D, "theta_bayes": theta, "ess": summary.ess}
        with _stage("write"):
            _write_table(out / "fit.csv", fit)
            _write_json(metadata, out / "metadata.json")
        return None

    curve = None
    if config.gamma_grid is not None:
        with _stage("cross-validation"):
            try:
                curve = cross_validate(theta, phi, solver, config.gamma_grid, constraints)
            except NumericalError as exc:  # every grid point failed
                if not exc.areas:  # no area failed at every point: no label to name
                    raise
                labels = ", ".join(data.labels[i] for i in exc.areas)
                raise NumericalError(f"{exc} ({labels})") from exc
        gamma = curve.gamma_hat
        metadata["gamma_source"] = "cross-validation"
    else:
        gamma = config.gamma
        metadata["gamma_source"] = "fixed"
    metadata["gamma"] = gamma
    if stop_after == "cross-validation":
        with _stage("write"):
            _write_table(out / "cv_curve.csv", _cv_columns(curve))
            _write_json(metadata, out / "metadata.json")
        return None

    with _stage("estimate"):
        smoothed = smoothed_estimate(theta, phi, solver, gamma)
        if constraints is not None:
            bench = benchmarked_estimate(theta, phi, solver, gamma, constraints)
            theta_bm = bench.values
            residual = bench.constraint_residual
        else:
            theta_bm = smoothed.values
            residual = None

    metadata.update(
        {
            "m": data.m,
            "gamma_grid": None if config.gamma_grid is None else [float(g) for g in config.gamma_grid],
            "benchmark": bench_meta,
            "constraint_residual": residual,
            "bootstrap": None,
        }
    )

    mse = bias = None
    if config.bootstrap_replicates > 0:
        with _stage("bootstrap"):
            boot_cfg = BootstrapConfig(n_replicates=config.bootstrap_replicates, seed=config.seed)

            def replicate_pipeline(y_star: np.ndarray) -> np.ndarray:
                # every replicate's exact posterior mean under the main fit's
                # model and its gamma, then one batched estimate of the rows
                # that share a gamma, where the main estimate or CV accepted
                # Sigma; a row whose mean is NaN, or whose gamma or estimate
                # fails, stays NaN and is recorded as failed
                thetas = exact_means(data, y_star, config.gibbs.fixed_sigma_u2)
                gammas = np.full(len(thetas), gamma)
                if config.bootstrap_gamma_policy == "re-cross-validate":
                    for b, star_theta in enumerate(thetas):
                        try:
                            curve = cross_validate(star_theta, phi, solver, config.gamma_grid, constraints)
                            gammas[b] = curve.gamma_hat
                        except (ValidationError, NumericalError):
                            gammas[b] = np.nan
                estimates = np.full_like(thetas, np.nan)
                for star_gamma in np.unique(gammas[~np.isnan(gammas)]):
                    rows = gammas == star_gamma
                    estimates[rows] = _batch_estimates(
                        thetas[rows], solver, float(star_gamma), constraints is not None
                    )
                return estimates

            report = bootstrap_mse(data, theta_bm, replicate_pipeline, boot_cfg)
            mse, bias = report.mse, report.bias
            metadata["bootstrap"] = {
                "n_replicates": boot_cfg.n_replicates,
                "gamma_policy": config.bootstrap_gamma_policy,
                "failed": list(report.failed),
                "bayes_step": "exact",
            }

    result = EstimateReport(
        labels=data.labels,
        y=data.y,
        D=data.D,
        theta_bayes=theta,
        theta_smoothed=smoothed.values,
        theta_benchmarked=theta_bm,
        groups=data.groups,
        cv=curve,
        mse=mse,
        bias=bias,
        metadata=metadata,
    )
    with _stage("write"):
        write_report(result, out)
    return result


# ---------------------------------------------------------------------------
# Report I/O


def _make_dir(out: Path) -> None:
    """Create ``out`` and its parents; one that cannot be made, or a path
    with a NUL byte, is a ValidationError naming it."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create directory {out}: {exc.strerror or exc}") from None
    except ValueError:  # mkdir refuses a NUL byte in the path
        raise ValidationError(f"cannot create directory {str(out)!r}: the path holds a NUL byte") from None


def _write_json(obj: dict, path: Path) -> None:
    """Write ``obj``; a file that cannot be written is a ValidationError naming it."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from None


def _cv_columns(curve: CvCurve) -> dict:
    return {
        "gamma": curve.grid,
        "score": curve.scores,
        "failed_areas": [";".join(map(str, failed)) for failed in curve.failed_areas],
    }


def _mse_columns(report: EstimateReport) -> dict:
    return {"label": report.labels, "mse": report.mse, "bias": report.bias}


def write_report(report: EstimateReport, out_dir: str | Path) -> Path:
    """Write estimates.csv, cv_curve.csv, bootstrap_mse.csv, metadata.json."""
    out = Path(out_dir)
    _make_dir(out)
    numeric = {name: getattr(report, name) for name in _REPORT_COLUMNS}
    group = [""] * report.m if report.groups is None else report.groups
    _write_table(out / "estimates.csv", {"label": report.labels, **numeric, "group": group})
    if report.cv is not None:
        _write_table(out / "cv_curve.csv", _cv_columns(report.cv))
    if report.mse is not None:
        _write_table(out / "bootstrap_mse.csv", _mse_columns(report))
    _write_json(report.metadata, out / "metadata.json")
    return out


def read_report(out_dir: str | Path) -> EstimateReport:
    """Reconstruct a report from the files written by :func:`write_report`."""
    out = Path(out_dir)
    est_path = out / "estimates.csv"
    if not est_path.exists():
        raise ValidationError(f"no estimates.csv under {out}; run the pipeline first")
    est = _read_table(est_path, "report file", ["label", *_REPORT_COLUMNS, "group"])
    if not est["label"]:
        raise ValidationError(f"{est_path} has no data rows")
    metadata = {}
    meta_path = out / "metadata.json"
    if meta_path.exists():
        try:
            metadata = json.loads(_read_input(meta_path, "report file"))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{meta_path} is not valid JSON: {exc}") from None
        if not isinstance(metadata, dict):
            raise ValidationError(f"{meta_path} must hold a JSON object")
    mse = bias = curve = None
    boot_path = out / "bootstrap_mse.csv"
    if boot_path.exists():
        boot = _read_table(boot_path, "report file", ["mse", "bias"])
        mse, bias = boot.floats("mse"), boot.floats("bias")
    cv_path = out / "cv_curve.csv"
    if cv_path.exists():
        cv = _read_table(cv_path, "report file", ["gamma", "score", "failed_areas"])
        if not cv["gamma"]:
            raise ValidationError(f"{cv_path} has no data rows")
        grid, scores = cv.floats("gamma"), cv.floats("score")
        try:
            failed = tuple(tuple(int(i) for i in f.split(";") if i) for f in cv["failed_areas"])
        except ValueError:
            raise ValidationError(
                f"non-integer area index in column 'failed_areas' of {cv_path}"
            ) from None
        curve = CvCurve(grid, scores, failed)
    return EstimateReport(
        labels=tuple(est["label"]),
        **{name: est.floats(name) for name in _REPORT_COLUMNS},
        groups=tuple(est["group"]) if any(est["group"]) else None,
        cv=curve,
        mse=mse,
        bias=bias,
        metadata=metadata,
    )


def emit_plot_data(report: EstimateReport, kind: str, out_dir: str | Path) -> Path:
    """Write tidy plot-ready CSV for one figure kind; no rendering happens.

    ``scatter_constrained_vs_bayes``: one row per area with the Bayes and
    constrained estimates.  ``scatter_by_group``: one row per area per
    series (smoothed, benchmarked) with the group label.  ``mse_by_area``:
    one row per area with bootstrap MSE and bias, the same table as
    ``bootstrap_mse.csv``.  A rejected kind writes no file.
    """
    if kind not in PLOT_KINDS:
        raise ValidationError(f"unknown plot kind {kind!r}; choose from {PLOT_KINDS}")
    if kind == "scatter_constrained_vs_bayes":
        columns = {
            "label": report.labels,
            "bayes": report.theta_bayes,
            "constrained": report.theta_benchmarked,
        }
    elif kind == "scatter_by_group":
        if report.groups is None:
            raise ValidationError("scatter_by_group requires group labels in the report")
        columns = {
            "label": [*report.labels, *report.labels],
            "group": [*report.groups, *report.groups],
            "series": ["smoothed"] * report.m + ["benchmarked"] * report.m,
            "bayes": [*report.theta_bayes, *report.theta_bayes],
            "value": [*report.theta_smoothed, *report.theta_benchmarked],
        }
    else:  # mse_by_area
        if report.mse is None:
            raise ValidationError("mse_by_area requires bootstrap results in the report")
        columns = _mse_columns(report)
    out = Path(out_dir)
    _make_dir(out)
    target = out / f"plot_{kind}.csv"
    _write_table(target, columns)
    return target
