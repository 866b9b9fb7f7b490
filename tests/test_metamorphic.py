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

Relation (b), a permutation of the areas.  Permuting theta, phi, omega's
rows and columns, M's columns and the dataset's rows permutes the
smoothed and benchmarked estimates, the exact posterior means and the
areas CV finds unidentified, and leaves CV's scores and argmin as they
are.  The chain and the bootstrap draw their streams in file order, so a
whole run is not permutation-equivariant; the relation is checked on the
calls below them.

Relation (c), separate components.  At a fixed gamma with no constraint,
Sigma is block diagonal over the similarity graph's connected components,
so moving theta on some components leaves every other component's
estimates as they were.  A plain omega (an LU solve at these sizes) and
conjugate gradients keep them bit for bit; the eigen basis mixes the
components inside its zero eigenspace and moves them at roundoff.
"""

from dataclasses import replace

import numpy as np
import pytest

from smallarea import (
    ConstraintSet,
    GibbsConfig,
    NumericalError,
    RunConfig,
    SimilaritySpec,
    benchmarked_estimate,
    build_omega,
    connected_components,
    load_adjacency,
    load_area_csv,
    read_edge_list,
    run_pipeline,
    smoothed_estimate,
    write_area_csv,
)
from smallarea.datasets import FIXTURE_SCHEMA, synthetic_dataset_path, us_state_borders_path
from smallarea.estimators import _SigmaSolver
from smallarea.fay_herriot import exact_means
from smallarea.selection import cross_validate, default_gamma_grid

from test_estimators import _CGSolver, _lattice_problem

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


# Relation (b): the bundled fixture, theta its exact posterior means, the
# criterion-9 benchmark, ten seeded permutations.  Bounds: the largest gap
# measured at these settings (the same under 1 and 2 BLAS threads), times
# about 10.
PERMUTATIONS = range(10)
PERMUTED_GAMMAS = (0.02, 1.0)
# |new - old[perm]| / (1 + |old[perm]|) by route; measured 1.4e-15 and 6.3e-14
PERMUTED_TOL = {"plain": 1.5e-14, "eigen": 6e-13}
MEANS_TOL = 1e-14  # exact_means, the same measure; measured 8.1e-16
PERMUTED_SCORE_TOL = 3e-9  # CV scores, relative; measured 2.6e-10


@pytest.fixture(scope="module")
def fixture_problem():
    """The bundled fixture, the exact posterior means of its responses, its
    omega and the criterion-9 weighted-mean benchmark."""
    data = load_area_csv(synthetic_dataset_path(), FIXTURE_SCHEMA)
    omega = build_omega(load_adjacency(read_edge_list(us_state_borders_path()), data.labels)).omega
    weights = data.benchmark_weights / data.benchmark_weights.sum()
    constraints = ConstraintSet(weights[np.newaxis, :], [TARGET])
    return data, exact_means(data, data.y[np.newaxis, :])[0], omega, constraints


def _permuted(problem, perm):
    """The problem with its areas in the order ``perm``: new area j is old area perm[j]."""
    data, theta, omega, constraints = problem
    moved = replace(
        data,
        labels=tuple(data.labels[i] for i in perm),
        y=data.y[perm],
        D=data.D[perm],
        covariates=data.covariates[perm],
        groups=tuple(data.groups[i] for i in perm),
        phi=data.phi[perm],
        benchmark_weights=data.benchmark_weights[perm],
    )
    return moved, theta[perm], omega[np.ix_(perm, perm)], ConstraintSet(constraints.M[:, perm], constraints.t)


def _estimates(problem, route, gamma):
    """The smoothed and benchmarked estimates at ``gamma``, through a plain
    omega (a one-off one-gamma solver) or an eigen-basis solver."""
    data, theta, omega, constraints = problem
    solver = omega if route == "plain" else _SigmaSolver(data.phi, omega, constraints)
    return (
        smoothed_estimate(theta, data.phi, solver, gamma).values,
        benchmarked_estimate(theta, data.phi, solver, gamma, constraints).values,
    )


def _gap(got, want):
    return float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))


def _always_failed(problem, grid):
    """The areas unconstrained CV finds unidentified at every grid point."""
    data, theta, omega, _ = problem
    with pytest.raises(NumericalError, match="all grid points infeasible") as info:
        cross_validate(theta, data.phi, omega, grid)
    return info.value.areas


def permutation_gaps(problem):
    """The largest gap of each part of relation (b) over the permutations."""
    data, theta, omega, constraints = problem
    responses = data.y + np.random.default_rng(0).normal(size=(5, data.m))
    grid = default_gamma_grid(*GRID_ENDS, 40)
    base = {(route, g): _estimates(problem, route, g) for route in PERMUTED_TOL for g in PERMUTED_GAMMAS}
    base_means = exact_means(data, responses)
    base_curve = cross_validate(theta, data.phi, omega, grid, constraints)
    base_failed = _always_failed(problem, grid)
    gaps = dict.fromkeys([*PERMUTED_TOL, "means", "score"], 0.0)
    for seed in PERMUTATIONS:
        perm = np.random.default_rng(seed).permutation(data.m)
        new_index = np.argsort(perm)  # old area i is new area new_index[i]
        moved = _permuted(problem, perm)
        for (route, g), values in base.items():
            for got, want in zip(_estimates(moved, route, g), values):
                gaps[route] = max(gaps[route], _gap(got, want[perm]))
        gaps["means"] = max(gaps["means"], _gap(exact_means(moved[0], responses[:, perm]), base_means[:, perm]))
        curve = cross_validate(moved[1], moved[0].phi, moved[2], grid, moved[3])
        finite = np.isfinite(base_curve.scores)
        np.testing.assert_array_equal(np.isfinite(curve.scores), finite)
        score_gap = np.max(np.abs(curve.scores[finite] / base_curve.scores[finite] - 1.0))
        gaps["score"] = max(gaps["score"], float(score_gap))
        assert np.argmin(curve.scores) == np.argmin(base_curve.scores)
        assert curve.failed_areas == tuple(tuple(sorted(new_index[list(f)])) for f in base_curve.failed_areas)
        assert _always_failed(moved, grid) == tuple(sorted(new_index[list(base_failed)]))
    return gaps


def test_permuting_the_areas_permutes_the_results(fixture_problem):
    gaps = permutation_gaps(fixture_problem)
    for route, tol in PERMUTED_TOL.items():
        assert gaps[route] <= tol, (route, gaps[route])
    assert gaps["means"] <= MEANS_TOL, gaps["means"]
    assert gaps["score"] <= PERMUTED_SCORE_TOL, gaps["score"]


# Relation (c): theta moved by +5 on one part of the components at a time.
# Bound of the eigen route: the largest gap measured at these settings,
# times about 10.
COMPONENT_GAMMAS = {"fixture": (0.02, 1.0, 50.0), "lattice": (0.05, 0.5, 5.0, 50.0)}
COMPONENT_TOL = 3e-14  # |new - old| / (1 + |old|) off the moved components; measured 2.8e-15


def _component_problem(name, fixture_problem):
    """theta, phi and omega of the fixture (the mainland, AK and HI) or of a
    6 x 5 lattice with 3 isolated areas."""
    if name == "fixture":
        data, theta, omega, _ = fixture_problem
        return theta, data.phi, omega
    return _lattice_problem()[:3]


def component_gaps(name, route, fixture_problem):
    """The largest gap of relation (c) on problem ``name`` through ``route``,
    over its gammas and over moving each component, or all but it."""
    theta, phi, omega = _component_problem(name, fixture_problem)
    components = connected_components(SimilaritySpec.from_matrix(-omega))  # omega's off-diagonal is -2 q
    assert len(components) > 1
    solver = {  # a fresh solver for every solve
        "plain": lambda: omega,
        "eigen": lambda: _SigmaSolver(phi, omega),
        "cg": lambda: _CGSolver(phi, omega),
    }[route]
    worst = 0.0
    for g in COMPONENT_GAMMAS[name]:
        base = smoothed_estimate(theta, phi, solver(), g).values
        for part in components:
            for moved in (np.array(part), np.setdiff1d(np.arange(len(theta)), part)):
                kept = np.setdiff1d(np.arange(len(theta)), moved)
                shifted = theta.copy()
                shifted[moved] += 5.0
                got = smoothed_estimate(shifted, phi, solver(), g).values
                worst = max(worst, _gap(got[kept], base[kept]))
    return worst


@pytest.mark.parametrize("name", ["fixture", "lattice"])
@pytest.mark.parametrize("route", ["plain", "eigen", "cg"])
def test_moving_some_components_leaves_the_others(fixture_problem, name, route):
    gap = component_gaps(name, route, fixture_problem)
    assert gap <= (COMPONENT_TOL if route == "eigen" else 0.0), gap
