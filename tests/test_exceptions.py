"""The shared value checks, and the entry points that run their numbers
through them: a bad value is a ValidationError naming the field."""

import re
from pathlib import Path

import numpy as np
import pytest

from smallarea import (
    BootstrapConfig,
    CsvSchema,
    CvCurve,
    GibbsConfig,
    RunConfig,
    SimilaritySpec,
    UnitLevelLayout,
    ValidationError,
    default_gamma_grid,
    smoothed_estimate,
)
from smallarea.exceptions import _integer, _real, _vector

TOY_OMEGA = np.array([[2.0, -2.0], [-2.0, 2.0]])
TOY_PHI = np.ones(2)


class TestCheckers:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
    def test_integer_returns_plain_int(self, value):
        got = _integer("n", value, 0)
        assert got == 3 and type(got) is int

    @pytest.mark.parametrize(
        "value, minimum, message",
        [
            (2.0, None, "n must be an integer, got 2.0"),
            (np.bool_(True), None, "n must be an integer, got"),
            ("3", None, "n must be an integer, got '3'"),
            (-1, 0, "n must be a nonnegative integer, got -1"),
            (0, 1, "n must be an integer >= 1, got 0"),
        ],
    )
    def test_integer_rejects(self, value, minimum, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            _integer("n", value, minimum)

    @pytest.mark.parametrize("value", [2, 2.5, np.float32(2.5), np.int64(2)])
    def test_real_returns_plain_float(self, value):
        got = _real("x", value)
        assert got == float(value) and type(got) is float

    @pytest.mark.parametrize(
        "value, minimum, message",
        [
            (True, None, "x must be a real number, got True"),
            ("1.5", None, "x must be a real number, got '1.5'"),
            (None, None, "x must be a real number, got None"),
            (np.array(1.0), None, "x must be a real number"),
            (float("nan"), None, "x must be a finite real, got nan"),
            (-0.5, 0, "x must be a finite nonnegative real, got -0.5"),
        ],
    )
    def test_real_rejects(self, value, minimum, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            _real("x", value, minimum)

    def test_vector_returns_float64_without_copying_one(self):
        v = np.array([1.0, 2.0])
        assert _vector("v", v) is v
        got = _vector("v", [1, 2], 2)
        assert got.dtype == np.float64 and np.array_equal(got, [1.0, 2.0])

    @pytest.mark.parametrize(
        "value, message",
        [
            (["a", "b"], "v must be a vector of real numbers"),
            ([True, False], "v must be a vector of real numbers"),
            ([1.0, None], "v must be a vector of real numbers"),
            ([[1.0], [2.0, 3.0]], "v must be a vector of real numbers"),
            (np.ones((2, 2)), "v must be one-dimensional"),
            (np.ones(3), "v has length 3, expected 2"),
            ([1.0, np.inf], "v contains non-finite entries"),
        ],
    )
    def test_vector_rejects(self, value, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            _vector("v", value, 2)


def _run_config(**overrides) -> RunConfig:
    fields = {
        "area_csv": Path("areas.csv"),
        "edge_list": Path("edges.txt"),
        "schema": CsvSchema(covariates=("x",), benchmark_weight="w"),
        "gamma": 0.5,
        "benchmark_target": 1.0,
    }
    return RunConfig(**{**fields, **overrides})


def _layout(**overrides) -> UnitLevelLayout:
    fields = {
        "units_per_area": (1, 2),
        "phi": np.ones(2),
        "xi": np.ones(3),
        "gamma_area": 1.0,
        "gamma_unit": 1.0,
    }
    return UnitLevelLayout(**{**fields, **overrides})


@pytest.mark.parametrize(
    "build, field",
    [
        pytest.param(lambda: GibbsConfig(fixed_sigma_u2="1.5"), "fixed_sigma_u2", id="gibbs-variance-text"),
        pytest.param(lambda: GibbsConfig(fixed_sigma_u2=True), "fixed_sigma_u2", id="gibbs-variance-bool"),
        pytest.param(lambda: BootstrapConfig(3, seed=2.9), "seed", id="bootstrap-seed-fractional"),
        pytest.param(lambda: BootstrapConfig(3, seed=-1), "seed", id="bootstrap-seed-negative"),
        pytest.param(lambda: BootstrapConfig(2.5), "n_replicates", id="bootstrap-replicates-fractional"),
        pytest.param(lambda: BootstrapConfig(True), "n_replicates", id="bootstrap-replicates-bool"),
        pytest.param(lambda: _run_config(seed="x"), "seed", id="run-seed-text"),
        pytest.param(lambda: _run_config(gamma="x"), "gamma", id="run-gamma-text"),
        pytest.param(lambda: _run_config(benchmark_target="x"), "benchmark_target", id="run-target-text"),
        pytest.param(lambda: _run_config(seed=2.5), "seed", id="run-seed-fractional"),
        pytest.param(
            lambda: _run_config(bootstrap_replicates=2.5), "bootstrap_replicates", id="run-replicates-fractional"
        ),
        pytest.param(lambda: _run_config(bootstrap_replicates=True), "bootstrap_replicates", id="run-replicates-bool"),
        pytest.param(lambda: _layout(units_per_area=(1.5, 2)), "units_per_area[0]", id="layout-fractional-units"),
        pytest.param(lambda: SimilaritySpec(True, []), "size", id="spec-size-bool"),
        pytest.param(lambda: SimilaritySpec(2, [(0, 1, "a")]), "similarity at (0, 1)", id="spec-value-text"),
        pytest.param(lambda: smoothed_estimate(["a", "b"], TOY_PHI, TOY_OMEGA, 1.0), "theta_bayes", id="theta-text"),
        pytest.param(lambda: smoothed_estimate([1.0, 3.0], TOY_PHI, TOY_OMEGA, None), "gamma", id="gamma-none"),
        pytest.param(lambda: smoothed_estimate([1.0, 3.0], TOY_PHI, TOY_OMEGA, "x"), "gamma", id="gamma-text"),
        pytest.param(lambda: CvCurve(["a", "b"], [1.0, 2.0], 1.0), "grid", id="curve-grid-text"),
        pytest.param(lambda: default_gamma_grid(num=2.5), "num", id="grid-num-fractional"),
    ],
)
def test_bad_value_is_a_validation_error_naming_the_field(build, field):
    with pytest.raises(ValidationError, match=re.escape(field)):
        build()
