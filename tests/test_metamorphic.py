"""Metamorphic relations: a whole run checked against a transformed run.

Relation (a), a change of units.  Map y -> a + b y, D -> b^2 D, the
benchmark target t -> a + b t and gamma -> gamma / b^2 (a fixed gamma, or
the ends of the grid).  The chain's updates, the exact posterior means,
the estimators (Sigma becomes Sigma / b^2) and the residual bootstrap
(residuals over sqrt(D)) are all equivariant, so the transformed run
gives a + b * (the estimates), b^2 * mse, b * bias, the same CV scores,
and the selected gamma over b^2.  Only roundoff separates the two runs; a
constant that does not scale with the data (a floor, a tolerance) would
show here, where no single-layer oracle sees it.

One does: the chain starts its model variance at the method-of-moments
estimate floored at 1e-6, and on the bundled fixture that estimate is
negative, so the floor binds and both chains start at 1e-6, where the
run in the new units would need b^2 * 1e-6.  At 100 burn-in iterations the start has not washed
out, and theta_bayes of a run with b != 1 moves by 1e-2 to 2e-2.  Those
cases are strict expected failures; with the model variance pinned (to
s2, and b^2 * s2 in the new units) the chain has no such start and the
relation holds to roundoff.
"""

from dataclasses import replace

import numpy as np
import pytest

from smallarea import GibbsConfig, RunConfig, load_area_csv, run_pipeline, write_area_csv
from smallarea.datasets import FIXTURE_SCHEMA, synthetic_dataset_path, us_state_borders_path
from smallarea.selection import default_gamma_grid

TARGET = 15.0  # the weighted-mean benchmark of acceptance criterion 9
SIGMA_U2 = 1.5  # the pinned model variance
GAMMA = 0.02
GRID_ENDS = (1e-4, 1e2)
CASES = [(0.0, 2.0), (0.0, 0.25), (10.0, 1.0), (-3.0, 3.0)]

# Bounds: the largest gap measured at these settings (seed 1, 400/100
# iterations, 20 replicates; the same under 1 and 2 BLAS threads) over the
# cases that hold, times about 10.
ESTIMATE_TOL = 1e-12  # |new - (a + b old)| / (1 + |a + b old|); measured 9.7e-14
MOMENT_TOL = 5e-12  # mse and bias, over the largest |expected| of their column; measured 4.4e-13
SCORE_TOL = 6e-10  # CV scores, relative; measured 6.0e-11 at a = 10, from the cancellation in d - theta
GAMMA_TOL = 7e-15  # the selected gamma, relative; measured 6.7e-16


def _run(tmp_path, name, a, b, gamma_choice, variance):
    """The bundled fixture's criterion-9 run at 400/100 iterations and 20
    replicates, in the units (a, b), at a fixed gamma or over the grid, with
    the model variance sampled or pinned."""
    data = load_area_csv(synthetic_dataset_path(), FIXTURE_SCHEMA)
    moved = replace(data, y=a + b * data.y, D=b * b * data.D, phi=None)  # phi defaults to 1 / D
    work = tmp_path / name
    work.mkdir()
    choice = (
        {"gamma": GAMMA / b**2}
        if gamma_choice == "fixed"
        else {"gamma_grid": default_gamma_grid(GRID_ENDS[0] / b**2, GRID_ENDS[1] / b**2, 40)}
    )
    config = RunConfig(
        area_csv=write_area_csv(moved, work / "areas.csv", FIXTURE_SCHEMA),
        edge_list=us_state_borders_path(),
        schema=FIXTURE_SCHEMA,
        output_dir=work / "out",
        seed=1,
        benchmark_target=a + b * TARGET,
        gibbs=GibbsConfig(n_iter=400, n_burn=100, fixed_sigma_u2=None if variance == "sampled" else b**2 * SIGMA_U2),
        bootstrap_replicates=20,
        **choice,
    )
    return run_pipeline(config)


def _gaps(base, moved, a, b):
    """The largest gap of each relation between a run and its run in units
    (a, b), in the measures the bounds above use."""
    out = {}
    for name in ("theta_bayes", "theta_smoothed", "theta_benchmarked"):
        want = a + b * getattr(base, name)
        out[name] = float(np.max(np.abs(getattr(moved, name) - want) / (1.0 + np.abs(want))))
    for name, scale in (("mse", b * b), ("bias", b)):
        want = scale * getattr(base, name)
        out[name] = float(np.max(np.abs(getattr(moved, name) - want)) / np.max(np.abs(want)))
    if base.cv is not None:
        finite = np.isfinite(base.cv.scores)  # a failed grid point scores +inf in both runs
        out["score"] = float(np.max(np.abs(moved.cv.scores[finite] / base.cv.scores[finite] - 1.0)))
    out["gamma"] = abs(moved.metadata["gamma"] * b * b / base.metadata["gamma"] - 1.0)
    return out


@pytest.fixture(scope="module")
def base_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("units")
    return {
        (choice, variance): _run(tmp, f"base-{choice}-{variance}", 0.0, 1.0, choice, variance)
        for choice in ("fixed", "grid")
        for variance in ("sampled", "pinned")
    }


FLOORED_START = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="the chain's initial model variance is floored at 1e-6, unscaled"
)


@pytest.mark.parametrize("variance", ["sampled", "pinned"])
@pytest.mark.parametrize("gamma_choice", ["fixed", "grid"])
@pytest.mark.parametrize("a, b", CASES, ids=[f"a{a:g}-b{b:g}" for a, b in CASES])
def test_units_change_maps_the_whole_run(request, tmp_path, base_runs, a, b, gamma_choice, variance):
    if variance == "sampled" and b != 1.0:
        request.applymarker(FLOORED_START)
    base = base_runs[gamma_choice, variance]
    moved = _run(tmp_path, "moved", a, b, gamma_choice, variance)
    got = _gaps(base, moved, a, b)
    for name in ("theta_bayes", "theta_smoothed", "theta_benchmarked"):
        assert got[name] <= ESTIMATE_TOL, (name, got[name])
    for name in ("mse", "bias"):
        assert got[name] <= MOMENT_TOL, (name, got[name])
    assert got["gamma"] <= GAMMA_TOL, got["gamma"]
    if gamma_choice == "grid":
        assert got["score"] <= SCORE_TOL, got["score"]
        np.testing.assert_array_equal(np.isinf(moved.cv.scores), np.isinf(base.cv.scores))
        assert np.argmin(moved.cv.scores) == np.argmin(base.cv.scores)
        assert moved.cv.failed_areas == base.cv.failed_areas
