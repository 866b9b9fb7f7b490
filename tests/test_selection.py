import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from smallarea import (
    ConstraintSet,
    CsvSchema,
    CvCurve,
    NumericalError,
    SimilaritySpec,
    UnitLevelLayout,
    ValidationError,
    build_omega,
    cross_validate,
    cross_validate_unit,
    default_gamma_grid,
    load_adjacency,
    load_area_csv,
    loo_solution,
    read_edge_list,
    smoothed_estimate,
    benchmarked_estimate,
)
from smallarea.datasets import synthetic_dataset_path, us_state_borders_path
from smallarea.estimators import _CONDITION_LIMIT, _OneGammaSolver, _SigmaSolver

from oracles import (
    condition_numbers,
    constrained_quad_minimize,
    count_eigendecompositions,
    count_solves,
    dropped_term_minimize,
    kkt_solve,
    random_connected_instance,
    random_instance,
    reference_loo_solution,
)

TOY_OMEGA = np.array([[2.0, -2.0], [-2.0, 2.0]])
TOY_THETA = np.array([1.0, 3.0])
TOY_PHI = np.ones(2)


def held_out_score_oracle(theta, phi, omega, gamma, constraints=None):
    """Brute-force cross-validation score: numerically minimize each
    held-out objective with a generic optimizer."""
    m = len(theta)
    total = 0.0
    for i in range(m):
        if constraints is None:
            sol = dropped_term_minimize(theta, phi, omega, gamma, i)
        else:
            phi0 = phi.copy()
            phi0[i] = 0.0
            sol = constrained_quad_minimize(
                theta, phi0, omega, gamma, constraints.M, constraints.t
            )
        total += phi[i] * (sol[i] - theta[i]) ** 2
    return total / m


class TestLooSolution:
    def test_toy_hold_out_first_area(self):
        # smoothness pulls the held-out entry to its neighbor
        got = loo_solution(TOY_THETA, TOY_PHI, TOY_OMEGA, 1.0, 0)
        np.testing.assert_allclose(got, [3.0, 3.0], atol=1e-12)
        oracle = dropped_term_minimize(TOY_THETA, TOY_PHI, TOY_OMEGA, 1.0, 0)
        np.testing.assert_allclose(got, oracle, atol=1e-9)

    def test_toy_hold_out_second_area(self):
        got = loo_solution(TOY_THETA, TOY_PHI, TOY_OMEGA, 1.0, 1)
        np.testing.assert_allclose(got, [1.0, 1.0], atol=1e-12)

    def test_constraint_pins_held_out_coordinate(self):
        rng = np.random.default_rng(3)
        theta, phi, omega = random_instance(rng, 5)
        i, t = 2, 9.0
        pin = np.zeros(5)
        pin[i] = 1.0
        got = loo_solution(theta, phi, omega, 0.7, i, ConstraintSet(pin[None, :], [t]))
        assert got[i] == pytest.approx(t, abs=1e-10)

    def test_isolated_area_unidentified(self):
        omega = np.zeros((3, 3))  # no similarity at all
        with pytest.raises(NumericalError, match="held-out area 1 is unidentified"):
            loo_solution(np.ones(3), np.ones(3), omega, 1.0, 1)

    @pytest.mark.parametrize("index", [1.5, True, np.float64(1.0)])
    def test_index_must_be_an_integer(self, index):
        with pytest.raises(ValidationError, match="area index must be an integer"):
            loo_solution(TOY_THETA, TOY_PHI, TOY_OMEGA, 1.0, index)

    @pytest.mark.parametrize("index", [-1, 2])
    def test_index_must_name_an_area(self, index):
        with pytest.raises(ValidationError, match=rf"^area index {index} out of range \[0, 2\)$"):
            loo_solution(TOY_THETA, TOY_PHI, TOY_OMEGA, 1.0, index)

    def test_numpy_integer_index(self):
        got = loo_solution(TOY_THETA, TOY_PHI, TOY_OMEGA, 1.0, np.int64(1))
        np.testing.assert_array_equal(got, loo_solution(TOY_THETA, TOY_PHI, TOY_OMEGA, 1.0, 1))

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValidationError, match="gamma > 0"):
            loo_solution(TOY_THETA, TOY_PHI, TOY_OMEGA, 0.0, 0)

    def test_stationarity_of_zero_weight_fit(self):
        # dropping the loss term is exactly a zero-weight fit: the solution
        # satisfies (Phi_0 + gamma omega) d = Phi_0 theta
        rng = np.random.default_rng(4)
        theta, phi, omega = random_instance(rng, 6)
        gamma = 0.9
        i = 3
        sol = loo_solution(theta, phi, omega, gamma, i)
        phi0 = phi.copy()
        phi0[i] = 0.0
        lhs = (np.diag(phi0) + gamma * omega) @ sol
        np.testing.assert_allclose(lhs, phi0 * theta, atol=1e-10)


def _floats(n, low, high):
    return st.lists(st.floats(low, high), min_size=n, max_size=n).map(np.array)


@st.composite
def held_out_problems(draw, weights=lambda m: _floats(m, 0.5, 3.0), gammas=st.floats(0.1, 10.0)):
    """A random similarity graph in which some areas are isolated, zero to
    two full-rank constraint rows with some columns zeroed, and the area
    to hold out; loss weights and gamma come from ``weights(m)`` and
    ``gammas``."""
    m = draw(st.integers(2, 7))
    isolated = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    q = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            if not (isolated[i] or isolated[j]) and draw(st.booleans()):
                q[i, j] = q[j, i] = draw(st.floats(0.5, 2.0))
    omega = build_omega(SimilaritySpec.from_matrix(q)).omega
    constraints = None
    k = draw(st.integers(0, 2))
    if k:
        touched = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
        signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=k * m, max_size=k * m)))
        M = (draw(_floats(k * m, 0.5, 2.0)) * signs).reshape(k, m) * touched
        s = np.linalg.svd(M, compute_uv=False)
        assume(s[-1] > 1e-2 * s[0])  # full row rank, and far from losing it
        constraints = ConstraintSet(M, draw(_floats(k, -5.0, 5.0)))
    theta, phi = draw(_floats(m, -5.0, 5.0)), draw(weights(m))
    return theta, phi, omega, draw(gammas), draw(st.integers(0, m - 1)), constraints


# derandomized, so every run of the suite checks the same examples
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(held_out_problems())
def test_held_out_failure_rule(problem):
    # A held-out solve fails exactly when the area is isolated (omega_ii = 0)
    # and no constraint touches it (M[:, i] = 0); otherwise it is the
    # bordered KKT solution with that area's loss weight set to zero.
    theta, phi, omega, gamma, i, constraints = problem
    untouched = constraints is None or not np.any(constraints.M[:, i])
    if omega[i, i] == 0.0 and untouched:
        with pytest.raises(NumericalError, match=f"held-out area {i} is unidentified"):
            loo_solution(theta, phi, omega, gamma, i, constraints)
        return
    phi0 = phi.copy()
    phi0[i] = 0.0
    M, t = (None, None) if constraints is None else (constraints.M, constraints.t)
    got = loo_solution(theta, phi, omega, gamma, i, constraints)
    np.testing.assert_allclose(got, kkt_solve(theta, phi0, omega, gamma, M, t), rtol=1e-8, atol=1e-8)


# loss weights over three decades and gamma over six
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    held_out_problems(
        weights=lambda m: _floats(m, -1.0, 2.0).map(lambda e: 10.0**e),
        gammas=st.sampled_from([1e-4, 1e-2, 1.0, 1e2]),
    )
)
def test_held_out_fits_match_reference_solve(problem):
    # Holding out each area in turn, the full-fit identity and the bordered
    # reference solve fail on the same areas and agree on every other fit;
    # the full-fit estimates agree with the bordered solve too.
    theta, phi, omega, gamma, _, constraints = problem
    fits = [(smoothed_estimate(theta, phi, omega, gamma), None, None)]
    if constraints is not None:
        fits.append((benchmarked_estimate(theta, phi, omega, gamma, constraints), constraints.M, constraints.t))
    for fit, M, t in fits:
        want = kkt_solve(theta, phi, omega, gamma, M, t)
        assert np.max(np.abs(fit.values - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))
    for i in range(len(theta)):
        try:
            want = reference_loo_solution(theta, phi, omega, gamma, i, constraints)
        except NumericalError:
            with pytest.raises(NumericalError, match=f"held-out area {i} is unidentified"):
                loo_solution(theta, phi, omega, gamma, i, constraints)
            continue
        got = loo_solution(theta, phi, omega, gamma, i, constraints)
        assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))


def _wide_weights(m):
    """Loss weights over twelve decades."""
    return _floats(m, -6.0, 6.0).map(lambda e: 10.0**e)


def _close(got, want, theta, phi, tol):
    """got is want to within ``tol`` in the loss weights' norm
    ||Phi^{1/2} x||, relative to theta and want, the norm in which the
    solver's rounding error is bounded."""
    w = np.sqrt(phi)
    return np.linalg.norm(w * (got - want)) <= tol * (np.linalg.norm(w * theta) + np.linalg.norm(w * want))


# Loss weights over twelve decades and gamma at the default grid's ends.
# Sigma is accepted on the condition number kappa of Phi^{-1/2} Sigma
# Phi^{-1/2}, which such weights leave small, and every result is within
# machine epsilon times the condition numbers the oracle computes
# independently (kappa, the Gram matrix's, and 1/(1 - A_ii) for a held-out
# fit) of the bordered KKT solve, with a margin of 10 or more.
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(held_out_problems(weights=_wide_weights, gammas=st.sampled_from([1e-4, 1e2])))
def test_wide_weights_at_the_grid_ends(problem):
    theta, phi, omega, gamma, _, constraints = problem
    m = len(theta)
    M, t = (None, None) if constraints is None else (constraints.M, constraints.t)
    kappa, gram = condition_numbers(phi, omega, gamma, M)
    assert kappa <= _CONDITION_LIMIT / 2
    smooth = smoothed_estimate(theta, phi, omega, gamma).values
    assert _close(smooth, kkt_solve(theta, phi, omega, gamma), theta, phi, 1e-13 * kappa)
    if constraints is not None:
        try:
            bench = benchmarked_estimate(theta, phi, omega, gamma, constraints).values
        except NumericalError:
            assert kappa * gram > 1e6  # the residual check refuses an imprecise fit
        else:
            assert _close(bench, kkt_solve(theta, phi, omega, gamma, M, t), theta, phi, 1e-13 * kappa * gram)
    for i in range(m):
        if omega[i, i] == 0.0 and (constraints is None or not np.any(M[:, i])):
            with pytest.raises(NumericalError, match=f"held-out area {i} is unidentified"):
                loo_solution(theta, phi, omega, gamma, i, constraints)
            continue
        unit = np.eye(m)[i]
        gap = 1.0 - (kkt_solve(unit, phi, omega, gamma, M, t) - kkt_solve(np.zeros(m), phi, omega, gamma, M, t))[i]
        try:
            want = reference_loo_solution(theta, phi, omega, gamma, i, constraints)
        except NumericalError:  # the reference's unscaled condition check refuses wide weights
            phi0 = phi.copy()
            phi0[i] = 0.0
            want = kkt_solve(theta, phi0, omega, gamma, M, t)
        try:
            got = loo_solution(theta, phi, omega, gamma, i, constraints)
        except NumericalError:
            assert gap <= 1e-10 * kappa * gram
        else:
            assert _close(got, want, theta, phi, 1e-12 * kappa * gram / gap)


def _outcomes(theta, phi, omega, gamma, constraints, fresh=None):
    """Both estimates and every held-out fit at one gamma, through ``omega``
    (a penalty matrix or a solver), or with ``fresh``, a solver class,
    through a new ``fresh(phi, omega, constraints)`` for each call: each is
    an array, or the message of the NumericalError it raised."""

    def penalty():
        return omega if fresh is None else fresh(phi, omega, constraints)

    def run(fn, *args):
        try:
            result = fn(*args)
        except NumericalError as exc:
            return str(exc)
        return getattr(result, "values", result)

    out = [run(smoothed_estimate, theta, phi, penalty(), gamma)]
    if constraints is not None:
        out.append(run(benchmarked_estimate, theta, phi, penalty(), gamma, constraints))
    return out + [run(loo_solution, theta, phi, penalty(), gamma, i, constraints) for i in range(len(theta))]


def _assert_same_outcomes(shared, fresh):
    for got, want in zip(shared, fresh, strict=True):
        if isinstance(want, str):
            assert got == want
        else:
            np.testing.assert_array_equal(got, want)


# One solver shared across a gamma sequence that revisits earlier values,
# with an ill-conditioned gamma between feasible ones: a shared eigen solver
# against a fresh one for each call, and a shared one-gamma solver against
# calls with the plain omega, which build one each.
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(held_out_problems(), st.floats(0.1, 10.0))
def test_shared_solver_matches_one_off_calls(problem, other):
    theta, phi, omega, gamma, _, constraints = problem
    for solver_class, fresh in ((_OneGammaSolver, None), (_SigmaSolver, _SigmaSolver)):
        solver = solver_class(phi, omega, constraints)
        for g in (gamma, other, gamma, 1e15, other, 1e15, gamma):
            shared = _outcomes(theta, phi, solver, g, constraints)
            _assert_same_outcomes(shared, _outcomes(theta, phi, omega, g, constraints, fresh))
            if g == 1e15:
                continue
            for i, got in enumerate(shared[-len(theta):]):
                try:
                    want = reference_loo_solution(theta, phi, omega, g, i, constraints)
                except NumericalError:
                    assert isinstance(got, str)
                    continue
                assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))
    with pytest.raises(ValidationError, match="phi differs"):
        loo_solution(theta, 2.0 * phi, solver, gamma, 0, constraints)
    other_constraints = ConstraintSet(np.ones((1, len(theta))), [1.0])
    if constraints is not None:
        other_constraints = ConstraintSet(constraints.M, constraints.t + 1.0)
        # an equal set is the same problem
        copy = ConstraintSet(constraints.M.copy(), constraints.t.copy())
        _assert_same_outcomes(
            _outcomes(theta, phi, solver, gamma, copy),
            _outcomes(theta, phi, omega, gamma, constraints, _SigmaSolver),
        )
    with pytest.raises(ValidationError, match="constraints differ"):
        loo_solution(theta, phi, solver, gamma, 0, other_constraints)
    with pytest.raises(ValidationError, match="constraints differ"):
        cross_validate(theta, phi, solver, [gamma], other_constraints)


class TestHeldOutTable:
    """One solver keeps the full fit and A' of its last held-out call; every
    call through it equals the same call through a fresh solver."""

    M = np.array([[1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 2.0], [0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0]])
    CONSTRAINTS = ConstraintSet(M, [1.0, -2.0])

    def _setup(self):
        theta, phi, omega = random_connected_instance(np.random.default_rng(11), 8)
        return theta, phi, omega, _SigmaSolver(phi, omega, self.CONSTRAINTS)

    def _check(self, theta, phi, omega, solver, gamma, i, constraints):
        """loo_solution through ``solver`` against a fresh solver: equal
        arrays, or the same NumericalError message."""
        fresh = _SigmaSolver(phi, omega, self.CONSTRAINTS)
        try:
            want = loo_solution(theta, phi, fresh, gamma, i, constraints)
        except NumericalError as exc:
            with pytest.raises(NumericalError, match=f"^{re.escape(str(exc))}$"):
                loo_solution(theta, phi, solver, gamma, i, constraints)
            return str(exc)
        assert np.array_equal(loo_solution(theta, phi, solver, gamma, i, constraints), want)

    def test_theta_mutated_in_place(self):
        theta, phi, omega, solver = self._setup()
        for c in (None, self.CONSTRAINTS):
            self._check(theta, phi, omega, solver, 0.7, 0, c)
            theta[3] += 1.0  # same array object, new values
            self._check(theta, phi, omega, solver, 0.7, 1, c)

    def test_gamma_alternated(self):
        theta, phi, omega, solver = self._setup()
        for g in (0.3, 4.0, 0.3, 4.0):
            for i in (0, 5):
                self._check(theta, phi, omega, solver, g, i, self.CONSTRAINTS)

    def test_constrained_and_unconstrained_interleaved(self, monkeypatch):
        theta, phi, omega, solver = self._setup()
        factors = count_eigendecompositions(monkeypatch)
        for c in (None, self.CONSTRAINTS, None, self.CONSTRAINTS):
            for i in (2, 7):
                self._check(theta, phi, solver.omega, solver, 1.5, i, c)
        # the shared solver decomposed once; every fresh one once too
        assert factors == [(8, 8)] * (1 + 8)

    def test_ill_conditioned_gamma_between_good_ones(self):
        theta, phi, omega, solver = self._setup()
        for g in (0.5, 1e15, 0.5, 1e15, 2.0):
            for i in (0, 4):
                message = self._check(theta, phi, omega, solver, g, i, self.CONSTRAINTS)
                assert (message == f"held-out area {i} is unidentified at gamma=1e+15") == (g == 1e15)

    def test_smoothed_estimate_at_another_gamma_between_held_out_calls(self):
        theta, phi, omega, solver = self._setup()
        for c in (None, self.CONSTRAINTS):
            self._check(theta, phi, omega, solver, 0.9, 0, c)
            smoothed_estimate(theta, phi, solver, 3.0)
            self._check(theta, phi, omega, solver, 0.9, 1, c)
            benchmarked_estimate(theta, phi, solver, 0.9, self.CONSTRAINTS)
            self._check(theta, phi, omega, solver, 0.9, 2, c)

    @pytest.mark.parametrize("constrained", [False, True])
    def test_cross_validate_inverts_once_per_grid_point(self, monkeypatch, constrained):
        theta, phi, omega, solver = self._setup()
        constraints = self.CONSTRAINTS if constrained else None
        factors = count_eigendecompositions(monkeypatch)
        cross_validate(theta, phi, solver, np.geomspace(0.01, 100.0, 4), constraints)
        # one decomposition serves every grid point
        assert factors == [(8, 8)]


    def test_cross_validate_forms_one_projector_per_grid_point(self, monkeypatch):
        # held_out looks its fits up before computing anything, and a miss
        # forms them from one f and projector, whose 2 x 2 Gram solve is the
        # only one: one projector per grid point
        theta, phi, omega, solver = self._setup()
        projectors = count_solves(monkeypatch, 2)
        factors = count_eigendecompositions(monkeypatch)
        cross_validate(theta, phi, solver, np.geomspace(0.01, 100.0, 5), self.CONSTRAINTS)
        assert factors == [(8, 8)]
        assert projectors == [(2, 2)] * 5


def test_one_gamma_solver_held_out_fits_are_the_eigen_solvers_bits():
    # a _OneGammaSolver forms its held-out fits through the eigen basis, the
    # full fit included, so they are _SigmaSolver's to the bit; on the
    # bundled fixture AK and HI are isolated, so a benchmark identifies them
    data = load_area_csv(
        synthetic_dataset_path(),
        CsvSchema(
            covariates=("tax_poverty_rate", "nonfiler_rate", "foodstamp_rate"), benchmark_weight="benchmark_weight"
        ),
    )
    omega = build_omega(load_adjacency(read_edge_list(us_state_borders_path()), data.labels))
    w = data.benchmark_weights / data.benchmark_weights.sum()
    constraints = ConstraintSet(w[np.newaxis, :], [15.0])
    for c, identified in ((None, 49), (constraints, 51)):
        eigen, one = _SigmaSolver(data.phi, omega, constraints), _OneGammaSolver(data.phi, omega, constraints)
        equal = 0
        for i in range(data.m):
            try:
                want = loo_solution(data.y, data.phi, eigen, 0.5, i, c)
            except NumericalError as exc:
                with pytest.raises(NumericalError, match=f"^{re.escape(str(exc))}$"):
                    loo_solution(data.y, data.phi, one, 0.5, i, c)
                continue
            equal += np.array_equal(loo_solution(data.y, data.phi, one, 0.5, i, c), want)
        assert equal == identified


def test_held_out_fit_is_the_callers_own_copy():
    # the solver keeps every held-out fit of a grid point; writing into a
    # returned fit must not change what the next call returns
    theta, phi, omega = random_connected_instance(np.random.default_rng(11), 8)
    constraints = ConstraintSet(np.ones((1, 8)), [2.0])
    solver = _SigmaSolver(phi, omega, constraints)
    for c in (None, constraints):
        first = loo_solution(theta, phi, solver, 0.7, 3, c)
        want = first.copy()
        first[:] = 99.0
        np.testing.assert_array_equal(loo_solution(theta, phi, solver, 0.7, 3, c), want)


class TestCrossValidate:
    def test_factors_sigma_once_per_grid_point(self, monkeypatch):
        theta, phi, omega = random_connected_instance(np.random.default_rng(4), 9)
        constraints = ConstraintSet(np.ones((1, 9)) / 9, [0.0])
        factors = count_eigendecompositions(monkeypatch)
        grid = np.append(np.geomspace(0.01, 100.0, 5), 1e15)  # the last point is ill-conditioned
        curve = cross_validate(theta, phi, omega, grid, constraints)
        assert factors == [(9, 9)]  # one decomposition serves every grid point
        assert np.all(np.isfinite(curve.scores[:-1]))
        assert curve.failed_areas[-1] == tuple(range(9))

    def test_single_point_grid(self):
        curve = cross_validate(TOY_THETA, TOY_PHI, TOY_OMEGA, [0.8])
        assert curve.gamma_hat == 0.8
        assert curve.scores.shape == (1,)

    def test_toy_scores_match_brute_force_oracle(self):
        grid = np.array([0.5, 1.0, 2.0])
        curve = cross_validate(TOY_THETA, TOY_PHI, TOY_OMEGA, grid)
        for k, g in enumerate(grid):
            oracle = held_out_score_oracle(TOY_THETA, TOY_PHI, TOY_OMEGA, g)
            assert curve.scores[k] == pytest.approx(oracle, abs=1e-9)

    def test_random_instances_match_oracle_and_minimum_is_attained(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            theta, phi, omega = random_instance(rng, 5)
            grid = np.geomspace(0.05, 5.0, 6)
            curve = cross_validate(theta, phi, omega, grid)
            for k, g in enumerate(grid):
                oracle = held_out_score_oracle(theta, phi, omega, g)
                assert curve.scores[k] == pytest.approx(oracle, abs=1e-8)
            assert np.all(curve.scores >= 0)
            assert curve.scores[list(curve.grid).index(curve.gamma_hat)] <= curve.scores.min() + 1e-15

    def test_constrained_scores_match_constrained_oracle(self):
        rng = np.random.default_rng(9)
        theta, phi, omega = random_instance(rng, 4)
        w = np.full(4, 0.25)
        constraints = ConstraintSet(w[None, :], [float(theta.mean() + 0.3)])
        grid = np.array([0.2, 1.0])
        curve = cross_validate(theta, phi, omega, grid, constraints)
        for k, g in enumerate(grid):
            oracle = held_out_score_oracle(theta, phi, omega, g, constraints)
            assert curve.scores[k] == pytest.approx(oracle, abs=1e-9)

    def test_weight_scaling_invariance(self):
        # scaling phi by c and gamma by c leaves the solution unchanged and
        # multiplies every score by c
        rng = np.random.default_rng(10)
        theta, phi, omega = random_instance(rng, 5)
        grid = np.geomspace(0.1, 2.0, 5)
        c = 3.5
        base = cross_validate(theta, phi, omega, grid)
        scaled = cross_validate(theta, c * phi, omega, c * grid)
        np.testing.assert_allclose(scaled.scores, c * base.scores, rtol=1e-9)
        assert scaled.gamma_hat == pytest.approx(c * base.gamma_hat, rel=1e-12)

    def test_isolated_area_identified_by_covering_constraint(self):
        # area 2 has no neighbors, but the benchmark weight touches it, so
        # every held-out problem stays solvable
        omega = np.zeros((3, 3))
        omega[:2, :2] = TOY_OMEGA
        theta = np.array([1.0, 3.0, 5.0])
        w = np.array([0.4, 0.4, 0.2])
        constraints = ConstraintSet(w[None, :], [3.0])
        curve = cross_validate(theta, np.ones(3), omega, [0.5, 1.0], constraints)
        assert np.all(np.isfinite(curve.scores))
        assert curve.failed_areas == ((), ())

    def test_isolated_area_with_untouched_constraint_is_infeasible(self):
        omega = np.zeros((3, 3))
        omega[:2, :2] = TOY_OMEGA
        w = np.array([0.5, 0.5, 0.0])  # constraint ignores the isolated area
        constraints = ConstraintSet(w[None, :], [2.0])
        with pytest.raises(NumericalError, match="all grid points infeasible"):
            cross_validate(np.array([1.0, 3.0, 5.0]), np.ones(3), omega, [0.5, 1.0], constraints)

    def test_partially_infeasible_grid_scores_inf_and_reports(self):
        # an absurdly large gamma wrecks the bordered system's conditioning;
        # that grid point scores +inf without poisoning the rest
        omega = np.zeros((3, 3))
        omega[:2, :2] = TOY_OMEGA
        theta = np.array([1.0, 3.0, 5.0])
        w = np.array([0.4, 0.4, 0.2])
        constraints = ConstraintSet(w[None, :], [3.0])
        curve = cross_validate(theta, np.ones(3), omega, [1.0, 1e15], constraints)
        assert np.isfinite(curve.scores[0])
        assert np.isinf(curve.scores[1])
        assert curve.failed_areas[1] == (0, 1, 2)
        assert curve.gamma_hat == 1.0

    def test_all_grid_points_infeasible(self):
        omega = np.zeros((2, 2))
        with pytest.raises(NumericalError, match="all grid points infeasible") as exc:
            cross_validate(TOY_THETA, TOY_PHI, omega, [0.5, 1.0])
        assert exc.value.areas == (0, 1)

    @pytest.mark.parametrize(
        "grid, reason",
        [
            ([0.5, 1.0], "no area fails at every grid point, and the score overflowed at 2 of 2"),
            ([0.5, 1e15], "no area fails at every grid point, and the score overflowed at 1 of 2"),
        ],
        ids=["every-point", "with-a-failed-point"],
    )
    def test_overflowing_scores_fail_without_naming_areas(self, grid, reason):
        # held-out fits near 1e200 are finite, their squared gaps are not;
        # at 1e15 Sigma is refused and both areas fail
        with pytest.raises(NumericalError, match=f"^all grid points infeasible; {reason}$") as exc:
            cross_validate(np.array([1e200, -1e200]), TOY_PHI, TOY_OMEGA, grid)
        assert exc.value.areas == ()

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError, match="nonempty"):
            cross_validate(TOY_THETA, TOY_PHI, TOY_OMEGA, [])

    def test_nonpositive_grid_rejected(self):
        with pytest.raises(ValidationError, match="positive"):
            cross_validate(TOY_THETA, TOY_PHI, TOY_OMEGA, [0.0, 1.0])


class TestDefaultGrid:
    def test_shape_and_range(self):
        grid = default_gamma_grid()
        assert grid.shape == (40,)
        assert grid[0] == pytest.approx(1e-4)
        assert grid[-1] == pytest.approx(1e2)
        assert np.all(np.diff(grid) > 0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            default_gamma_grid(1.0, 0.5, 10)


class TestCvCurve:
    def test_gamma_hat_is_the_smallest_minimizer(self):
        curve = CvCurve(np.array([0.5, 1.0, 2.0, 4.0]), np.array([np.inf, 1.0, 3.0, 1.0]))
        assert curve.gamma_hat == 1.0 and type(curve.gamma_hat) is float

    def test_grid_must_increase(self):
        with pytest.raises(ValidationError, match="increasing"):
            CvCurve(np.array([1.0, 0.5]), np.array([1.0, 2.0]))

    def test_nan_scores_rejected(self):
        with pytest.raises(ValidationError, match="NaN"):
            CvCurve(np.array([0.5, 1.0]), np.array([np.nan, 2.0]))

    @pytest.mark.parametrize(
        "scores, failed, message",
        [
            ([-1e300, 1.0], ((), ()), "scores may not be NaN or negative"),
            ([-np.inf, 1.0], ((), ()), "scores may not be NaN or negative"),
            ([np.inf, 1.0], ((-5,), ()), "a grid point that lists failed areas must score +inf and list no negative index"),
            ([2.0, 1.0], ((3,), ()), "a grid point that lists failed areas must score +inf and list no negative index"),
        ],
        ids=["negative", "minus-inf", "negative-index", "failed-with-a-finite-score"],
    )
    def test_a_curve_cross_validate_never_returns_is_rejected(self, scores, failed, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            CvCurve(np.array([0.5, 1.0]), np.array(scores), failed)


class TestCrossValidateUnit:
    def _instances(self, rng):
        layout = UnitLevelLayout(
            (2, 1, 2),
            rng.uniform(0.5, 2.0, size=3),
            rng.uniform(0.5, 2.0, size=5),
            1.0,
            1.0,
        )
        theta_a, _, omega_a = random_connected_instance(rng, 3)
        theta_u, _, omega_u = random_connected_instance(rng, 5)
        return layout, theta_a, theta_u, omega_a, omega_u

    def test_product_grid_argmin_matches_exhaustive_search(self):
        rng = np.random.default_rng(12)
        layout, theta_a, theta_u, omega_a, omega_u = self._instances(rng)
        grid_a = np.geomspace(0.1, 3.0, 4)
        grid_u = np.geomspace(0.05, 2.0, 5)
        curve_a, curve_u = cross_validate_unit(
            layout, theta_a, theta_u, omega_a, omega_u, grid_a, grid_u
        )
        # the instances must not be degenerate (flat curves have no unique argmin)
        assert np.ptp(curve_a.scores) > 1e-6 and np.ptp(curve_u.scores) > 1e-6
        # exhaustive oracle over the full product grid, summing both levels
        best = None
        for ga in grid_a:
            va = held_out_score_oracle(theta_a, layout.phi, omega_a, ga)
            for gu in grid_u:
                vu = held_out_score_oracle(theta_u, layout.xi, omega_u, gu)
                if best is None or va + vu < best[0]:
                    best = (va + vu, ga, gu)
        assert curve_a.gamma_hat == pytest.approx(best[1])
        assert curve_u.gamma_hat == pytest.approx(best[2])

    def test_single_pair_grid(self):
        rng = np.random.default_rng(13)
        layout, theta_a, theta_u, omega_a, omega_u = self._instances(rng)
        curve_a, curve_u = cross_validate_unit(
            layout, theta_a, theta_u, omega_a, omega_u, [0.7], [1.1]
        )
        assert (curve_a.gamma_hat, curve_u.gamma_hat) == (0.7, 1.1)

    def test_reduces_to_one_level_curve(self):
        rng = np.random.default_rng(14)
        layout, theta_a, theta_u, omega_a, omega_u = self._instances(rng)
        grid_u = np.geomspace(0.05, 2.0, 5)
        _, curve_u = cross_validate_unit(
            layout, theta_a, theta_u, omega_a, omega_u, [1.0], grid_u
        )
        standalone = cross_validate(theta_u, layout.xi, omega_u, grid_u)
        np.testing.assert_allclose(curve_u.scores, standalone.scores, rtol=0, atol=0)
        assert curve_u.gamma_hat == standalone.gamma_hat
