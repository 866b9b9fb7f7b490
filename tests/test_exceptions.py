"""The shared value checks, and the entry points that run their numbers
through them: a bad value is a ValidationError naming the field.  The
shared input reader: an unreadable file is a ValidationError naming the
input and its path."""

import codecs
import re
from pathlib import Path

import numpy as np
import pytest

from smallarea import (
    AreaDataset,
    BootstrapConfig,
    ConstraintSet,
    CsvSchema,
    CvCurve,
    GibbsConfig,
    RunConfig,
    SimilaritySpec,
    SmoothnessMatrix,
    UnitLevelLayout,
    ValidationError,
    default_gamma_grid,
    load_area_csv,
    read_edge_list,
    smoothed_estimate,
    unit_level_benchmarked,
)
from smallarea.exceptions import _input_lines, _integer, _matrix, _read_input, _real, _vector
from smallarea.pipeline import _read_numeric_rows

TOY_OMEGA = np.array([[2.0, -2.0], [-2.0, 2.0]])
TOY_PHI = np.ones(2)


def _area_fields(path):
    """The columns of area CSV ``path`` (label, y, D, x), as lists."""
    data = load_area_csv(path, CsvSchema(covariates=("x",)))
    return data.labels, data.y.tolist(), data.D.tolist(), data.X.tolist()


class TestInputReader:
    def test_numbered_lines_skip_blanks_and_comments(self, tmp_path):
        path = tmp_path / "in.txt"
        # \r\n and a lone \r end a line as \n does, so line numbers agree
        path.write_bytes(b"  a = 1  \r\n\r\n# note\rb=2\n   \n  # indented note\nc\n")
        assert list(_input_lines(path, "edge list")) == [(1, "a = 1"), (4, "b=2"), (7, "c")]

    def test_text_keeps_line_endings(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_bytes(b"a,b\r\n\"x\ny\",2\r\n")
        assert _read_input(path, "area CSV") == "a,b\r\n\"x\ny\",2\r\n"

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("missing", "edge list not found: {path}"),
            ("directory", "cannot read edge list {path}: "),
            ("not-utf8", "{path}:3: edge list is not valid UTF-8"),
            ("marked-not-utf8", "{path}:3: edge list is not valid UTF-8"),
        ],
    )
    def test_unreadable_file_is_a_validation_error(self, tmp_path, fault, message):
        path = tmp_path / "edges.txt"
        if fault == "directory":
            path.mkdir()
        elif fault.endswith("not-utf8"):
            # the bad byte opens line 3, so a count that is off by the
            # mark's 3 bytes lands on line 2
            mark = codecs.BOM_UTF8 if fault.startswith("marked") else b""
            path.write_bytes(mark + b"a,b\nb,c\n\xffc,d\n")
        with pytest.raises(ValidationError, match=re.escape(message.format(path=path))) as exc:
            list(_input_lines(path, "edge list"))
        assert exc.value.__cause__ is None and exc.value.__suppress_context__

    # input kind: (its text, a reader that returns a comparable value)
    MARKED_INPUTS = {
        "config file": (
            b"area_csv = areas.csv\nedge_list = edges.txt\ncovariate_columns = x\ngamma = 1\n",
            RunConfig.from_file,
        ),
        "area CSV": (
            b"label,y,D,x\na,1.0,0.5,2\nb,2.0,0.25,3\nc,1.5,1.0,5\nd,3.0,0.5,4\n",
            _area_fields,
        ),
        "edge list": (b"# first line a comment\na,b\nb,c,0.5\n", read_edge_list),
        "benchmark matrix": (b"1,2,3\n4,5,6\n", lambda path: _read_numeric_rows(path, "benchmark matrix").tolist()),
        "benchmark targets": (b"1.5\n2\n", lambda path: _read_numeric_rows(path, "benchmark targets", 1).tolist()),
    }

    @pytest.mark.parametrize("kind", list(MARKED_INPUTS))
    def test_leading_byte_order_mark_is_dropped(self, tmp_path, kind):
        """A UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports
        write, is not part of the first line."""
        text, read = self.MARKED_INPUTS[kind]
        path = tmp_path / "input"
        path.write_bytes(text)
        plain = read(path)
        path.write_bytes(codecs.BOM_UTF8 + text)
        assert read(path) == plain


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
            (True, None, "n must be an integer, got True"),
        ],
    )
    def test_integer_rejects(self, value, minimum, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            _integer("n", value, minimum)

    @pytest.mark.parametrize("value", [2, 2.5, np.float32(2.5), np.int64(2), np.float64(0.25)])
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
            (float("inf"), 0, "x must be a finite nonnegative real, got inf"),
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

    @pytest.mark.parametrize(
        "value, message",
        [
            ([["a", "b"]], "a must be a matrix of real numbers"),
            ([[True, False]], "a must be a matrix of real numbers"),
            ([[1.0], [2.0, 3.0]], "a must be a matrix of real numbers"),
            ([1.0, 2.0], "a must be two-dimensional, got shape (2,)"),
            (np.ones((2, 1)), "a has shape (2, 1), expected (1, 2)"),
            ([[1.0, np.nan]], "a contains non-finite entries"),
        ],
    )
    def test_matrix_rejects(self, value, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            _matrix("a", value, (1, 2))


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
        pytest.param(lambda: CvCurve(["a", "b"], [1.0, 2.0]), "grid", id="curve-grid-text"),
        pytest.param(lambda: default_gamma_grid(num=2.5), "num", id="grid-num-fractional"),
    ],
)
def test_bad_value_is_a_validation_error_naming_the_field(build, field):
    with pytest.raises(ValidationError, match=re.escape(field)):
        build()


def _unit_weights(weights):
    return unit_level_benchmarked(
        _layout(), [1.0, 2.0], [1.0, 2.0, 3.0], TOY_OMEGA, np.zeros((3, 3)), [0.5, 0.5], 1.0, weights
    )


TEXT = [["a", "b"], ["c", "d"]]


@pytest.mark.parametrize(
    "build, field",
    [
        pytest.param(lambda: SmoothnessMatrix(TEXT), "omega", id="penalty-text"),
        pytest.param(lambda: SmoothnessMatrix([[True, False], [False, True]]), "omega", id="penalty-bool"),
        pytest.param(lambda: SmoothnessMatrix([[1.0, np.inf], [np.inf, 1.0]]), "omega", id="penalty-inf"),
        pytest.param(lambda: SimilaritySpec.from_matrix(TEXT), "similarity matrix", id="similarity-text"),
        pytest.param(lambda: ConstraintSet([["a", "b"]], [1.0]), "M must be a matrix", id="constraints-text"),
        pytest.param(lambda: ConstraintSet([1.0, 1.0], [1.0]), "M must be two-dimensional", id="constraints-1d"),
        pytest.param(lambda: ConstraintSet([[1.0, np.nan]], [1.0]), "M contains", id="constraints-nan"),
        pytest.param(
            lambda: AreaDataset(("a", "b"), [1.0, 2.0], [1.0, 1.0], [["x"], ["y"]], ("x",)),
            "covariates",
            id="covariates-text",
        ),
        pytest.param(
            lambda: AreaDataset(("a", "b"), [1.0, 2.0], [1.0, 1.0], [[1.0], [np.inf]], ("x",)),
            "covariates",
            id="covariates-inf",
        ),
        pytest.param(lambda: _unit_weights([["a", "b", "c"], ["d", "e", "f"]]), "unit_weights", id="unit-weights-text"),
        pytest.param(lambda: _unit_weights(np.ones((2, 2))), "unit_weights", id="unit-weights-shape"),
        pytest.param(lambda: CvCurve([0.5, 1.0], ["a", "b"]), "scores", id="curve-scores-text"),
        pytest.param(lambda: CvCurve([0.5, 1.0], [[1.0, 2.0]]), "scores", id="curve-scores-2d"),
    ],
)
def test_bad_matrix_is_a_validation_error_naming_the_field(build, field):
    with pytest.raises(ValidationError, match=re.escape(field)):
        build()


@pytest.mark.parametrize(
    "grid",
    [
        pytest.param(np.array([0.1, -1.0]), id="negative"),
        pytest.param(np.array([0.0, 1.0]), id="zero"),
        pytest.param(np.array([]), id="empty"),
        pytest.param(np.array([0.1, np.inf]), id="inf"),
        pytest.param(["a", "b"], id="text"),
        pytest.param(np.ones((2, 2)), id="2d"),
    ],
)
def test_bad_gamma_grid_is_rejected_at_construction(grid):
    with pytest.raises(ValidationError, match="gamma_grid"):
        _run_config(gamma=None, gamma_grid=grid)
