import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import block_diag, eigh, null_space

from smallarea import (
    BenchmarkedEstimate,
    ConstraintSet,
    LossWeights,
    NumericalError,
    SmoothedEstimate,
    UnitLevelLayout,
    ValidationError,
    benchmarked_estimate,
    benchmarked_estimate_single,
    loo_solution,
    penalized_objective,
    smoothed_estimate,
    stack_multivariate,
    unit_level_benchmarked,
    unit_level_smoothed,
)
from smallarea import estimators
from smallarea.estimators import (
    _CONDITION_LIMIT,
    _batch_estimates,
    _OneGammaSolver,
    _residual_bound,
    _SigmaSolver,
)

from oracles import (
    condition_numbers,
    count_eigendecompositions,
    count_solves,
    kkt_solve,
    quad_minimize,
    random_instance,
)
from test_selection import _close, _floats, _wide_weights, held_out_problems


class _CGSolver(_OneGammaSolver):
    """The one-gamma solver taking conjugate gradients at every size, as it
    does on a large sparse omega, so that small problems test that route."""

    def _cg_pays(self, cap, n):
        return True


TOY_OMEGA = np.array([[2.0, -2.0], [-2.0, 2.0]])
TOY_THETA = np.array([1.0, 3.0])
TOY_PHI = np.ones(2)


def count_solvers_and_omega_checks(monkeypatch):
    """Record every Sigma solver built and every penalty matrix validated
    while the test runs: returns two lists, the class of each solver and
    the shape of each omega checked."""
    built, checked = [], []
    init, check = estimators._SigmaSolver.__init__, estimators._omega_matrix

    def counted_init(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    def counted_check(omega, size):
        checked.append((size, size))
        return check(omega, size)

    monkeypatch.setattr(estimators._SigmaSolver, "__init__", counted_init)
    monkeypatch.setattr(estimators, "_omega_matrix", counted_check)
    return built, checked


class TestSmoothed:
    def test_gamma_zero_returns_input_exactly(self):
        rng = np.random.default_rng(0)
        theta = rng.normal(size=6)
        _, phi, omega = random_instance(rng, 6)
        result = smoothed_estimate(theta, phi, omega, 0.0)
        assert np.array_equal(result.values, theta)

    def test_constant_vector_is_fixed_point(self):
        theta = np.full(4, 2.5)
        rng = np.random.default_rng(1)
        _, phi, omega = random_instance(rng, 4)
        result = smoothed_estimate(theta, phi, omega, 3.7)
        np.testing.assert_allclose(result.values, theta, rtol=0, atol=1e-12)

    def test_worked_micro_example(self):
        result = smoothed_estimate(TOY_THETA, TOY_PHI, TOY_OMEGA, 1.0)
        np.testing.assert_allclose(result.values, [9 / 5, 11 / 5], rtol=0, atol=1e-14)
        # independent second-order optimizer agrees
        oracle = quad_minimize(TOY_THETA, TOY_PHI, TOY_OMEGA, 1.0)
        np.testing.assert_allclose(result.values, oracle, atol=1e-10)

    def test_matches_generic_minimizer_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = int(rng.integers(2, 9))
            theta, phi, omega = random_instance(rng, m)
            gamma = float(rng.uniform(0.05, 5.0))
            got = smoothed_estimate(theta, phi, omega, gamma).values
            np.testing.assert_allclose(got, quad_minimize(theta, phi, omega, gamma), atol=1e-8)

    def test_accepts_loss_weights_wrapper(self):
        result = smoothed_estimate(TOY_THETA, LossWeights(TOY_PHI), TOY_OMEGA, 1.0)
        np.testing.assert_allclose(result.values, [1.8, 2.2])

    def test_loss_weights_length_is_the_number_of_areas(self):
        assert len(LossWeights(TOY_PHI)) == 2

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="non-finite"):
            smoothed_estimate(np.array([1.0, np.nan]), TOY_PHI, TOY_OMEGA, 1.0)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            smoothed_estimate(np.ones(3), TOY_PHI, TOY_OMEGA, 1.0)

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValidationError, match="gamma"):
            smoothed_estimate(TOY_THETA, TOY_PHI, TOY_OMEGA, -0.5)


class TestBenchmarked:
    def test_already_satisfied_constraint_is_noop(self):
        smooth = smoothed_estimate(TOY_THETA, TOY_PHI, TOY_OMEGA, 1.0).values
        w = np.array([0.5, 0.5])
        t = float(w @ smooth)
        result = benchmarked_estimate(
            TOY_THETA, TOY_PHI, TOY_OMEGA, 1.0, ConstraintSet(w[None, :], [t])
        )
        np.testing.assert_allclose(result.values, smooth, atol=1e-12)

    def test_worked_micro_example(self):
        constraints = ConstraintSet(np.array([[0.5, 0.5]]), np.array([3.0]))
        result = benchmarked_estimate(TOY_THETA, TOY_PHI, TOY_OMEGA, 1.0, constraints)
        np.testing.assert_allclose(result.values, [14 / 5, 16 / 5], rtol=0, atol=1e-12)
        assert result.values.mean() == pytest.approx(3.0, abs=1e-12)
        assert result.constraint_residual <= 1e-12
        # equality-constrained KKT oracle agrees
        oracle = kkt_solve(TOY_THETA, TOY_PHI, TOY_OMEGA, 1.0, constraints.M, constraints.t)
        np.testing.assert_allclose(result.values, oracle, atol=1e-10)

    def test_gamma_zero_uniform_weights_is_mean_shift(self):
        rng = np.random.default_rng(5)
        m = 5
        theta = rng.normal(0.0, 2.0, size=m)
        w = np.full(m, 1.0 / m)
        t = 4.0
        result = benchmarked_estimate_single(theta, np.ones(m), np.zeros((m, m)), 0.0, w, t)
        expected = theta + (t - theta.mean())
        np.testing.assert_allclose(result.values, expected, atol=1e-12)

    def test_adjustment_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            m = int(rng.integers(3, 10))
            theta, phi, omega = random_instance(rng, m)
            gamma = float(rng.uniform(0.01, 4.0))
            k = int(rng.integers(1, min(4, m)))
            M = rng.normal(size=(k, m))
            t = rng.normal(size=k)
            constraints = ConstraintSet(M, t)
            bench = benchmarked_estimate(theta, phi, omega, gamma, constraints).values
            smooth = smoothed_estimate(theta, phi, omega, gamma).values
            sigma = np.diag(phi) + gamma * omega
            sinv_mt = np.linalg.solve(sigma, M.T)
            adjust = sinv_mt @ np.linalg.solve(M @ sinv_mt, t - M @ smooth)
            np.testing.assert_allclose(bench, smooth + adjust, atol=1e-10)

    def test_matches_kkt_oracle_on_random_instances(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            m = int(rng.integers(2, 13))
            theta, phi, omega = random_instance(rng, m)
            gamma = float(rng.uniform(0.0, 4.0))
            k = int(rng.integers(1, min(4, m + 1)))
            M = rng.normal(size=(k, m))
            t = rng.normal(size=k)
            got = benchmarked_estimate(theta, phi, omega, gamma, ConstraintSet(M, t)).values
            np.testing.assert_allclose(got, kkt_solve(theta, phi, omega, gamma, M, t), atol=1e-8)

    def test_nearly_parallel_constraints_rejected(self):
        m = 4
        w = np.full(m, 0.25)
        M = np.vstack([w, w + 1e-8 * np.eye(m)[0]])
        constraints = ConstraintSet(M, np.array([1.0, 1.0]))
        with pytest.raises(NumericalError, match="degenerate or redundant constraints"):
            benchmarked_estimate(np.zeros(m), np.ones(m), np.zeros((m, m)), 0.0, constraints)

    def test_rank_deficient_matrix_rejected_at_construction(self):
        M = np.array([[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(ValidationError, match="rank deficient"):
            ConstraintSet(M, np.array([1.0, 2.0]))

    def test_more_constraints_than_parameters_rejected(self):
        with pytest.raises(ValidationError, match="full row rank"):
            ConstraintSet(np.ones((3, 2)), np.ones(3))


    def test_constraints_over_the_wrong_number_of_parameters_rejected(self):
        constraints = ConstraintSet(np.full((1, 3), 1.0 / 3.0), [2.0])
        with pytest.raises(ValidationError, match=r"^constraints are over 3 parameters, expected 2$"):
            benchmarked_estimate(TOY_THETA, TOY_PHI, TOY_OMEGA, 1.0, constraints)


class TestNonFiniteResults:
    """A non-finite estimate, and the overflowed objective of a finite one,
    are NumericalErrors that say which; neither prints a numpy warning."""

    @pytest.mark.parametrize(
        "result_class, extra",
        [(SmoothedEstimate, ()), (BenchmarkedEstimate, (0.0,))],
        ids=["smoothed", "benchmarked"],
    )
    def test_each_failure_has_its_message(self, result_class, extra):
        with pytest.raises(NumericalError, match="^estimate contains non-finite values$"):
            result_class(np.array([1.0, np.nan]), 0.0, *extra)
        overflowed = "^the penalized objective overflowed; the estimate's values are finite$"
        with pytest.raises(NumericalError, match=overflowed):
            result_class(np.array([1.0, 2.0]), np.inf, *extra)

    def test_objective_of_finite_estimates_near_1e200_overflows(self):
        # the estimates are finite, near 1e200; the objective's squares are not
        theta = np.array([1e200, -1e200])
        constraints = ConstraintSet(np.array([[0.5, 0.5]]), [1e200])
        assert np.isinf(penalized_objective(theta / 5.0, theta, TOY_PHI, TOY_OMEGA, 1.0))
        with pytest.raises(NumericalError, match="objective overflowed"):
            smoothed_estimate(theta, TOY_PHI, TOY_OMEGA, 1.0)
        with pytest.raises(NumericalError, match="objective overflowed"):
            benchmarked_estimate(theta, TOY_PHI, TOY_OMEGA, 1.0, constraints)


class TestSingleConstraint:
    def test_agrees_with_general_path(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            m = int(rng.integers(2, 10))
            theta, phi, omega = random_instance(rng, m)
            gamma = float(rng.uniform(0.0, 3.0))
            w = rng.uniform(0.0, 1.0, size=m)
            w[int(rng.integers(0, m))] += 0.5  # keep it nonzero
            t = float(rng.normal())
            single = benchmarked_estimate_single(theta, phi, omega, gamma, w, t).values
            general = benchmarked_estimate(
                theta, phi, omega, gamma, ConstraintSet(w[None, :], [t])
            ).values
            np.testing.assert_allclose(single, general, rtol=0, atol=1e-12)

    def test_pinning_one_area(self):
        rng = np.random.default_rng(9)
        theta, phi, omega = random_instance(rng, 5)
        w = np.zeros(5)
        w[0] = 1.0
        result = benchmarked_estimate_single(theta, phi, omega, 0.8, w, 7.5)
        assert result.values[0] == pytest.approx(7.5, abs=1e-12)

    def test_worked_micro_example(self):
        result = benchmarked_estimate_single(
            TOY_THETA, TOY_PHI, TOY_OMEGA, 1.0, np.array([0.5, 0.5]), 3.0
        )
        np.testing.assert_allclose(result.values, [14 / 5, 16 / 5], rtol=0, atol=1e-12)

    def test_zero_weights_rejected(self):
        with pytest.raises(ValidationError, match="nonzero"):
            benchmarked_estimate_single(TOY_THETA, TOY_PHI, TOY_OMEGA, 1.0, np.zeros(2), 1.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            benchmarked_estimate_single(
                TOY_THETA, TOY_PHI, TOY_OMEGA, 1.0, np.array([1.0, -0.5]), 1.0
            )

    def test_builds_one_solver_and_validates_omega_once(self, monkeypatch):
        built, checked = count_solvers_and_omega_checks(monkeypatch)
        benchmarked_estimate_single(TOY_THETA, TOY_PHI, TOY_OMEGA, 1.0, np.array([0.5, 0.5]), 3.0)
        assert built == [_SigmaSolver] and checked == [(2, 2)]

    def test_residual_bound_is_absolute_in_the_targets_units(self):
        # the bound 1e-8 (1 + |t|_inf) does not grow with theta: summing
        # the constrained estimates rounds at theta's scale, so a target
        # of 0 refuses thetas of 1e18, and one of their own scale does not
        m = 8
        adjacency = np.diag(np.ones(m - 1), 1)
        omega = np.diag((adjacency + adjacency.T).sum(axis=1)) - adjacency - adjacency.T
        theta, ones = np.random.default_rng(0).normal(size=m), np.ones(m)
        assert benchmarked_estimate_single(theta, ones, omega, 1.0, ones, 0.0).constraint_residual <= 1e-8
        message = r"^benchmark residual \d\.\d{3}e\+\d\d exceeds tolerance 1\.000e-08$"
        with pytest.raises(NumericalError, match=message):
            benchmarked_estimate_single(theta * 1e18, ones, omega, 1.0, ones, 0.0)
        fit = benchmarked_estimate_single(theta * 1e18, ones, omega, 1.0, ones, 1e18)
        assert fit.constraint_residual <= _residual_bound([1e18])


class TestOptimality:
    def test_smoothed_is_a_minimum_under_perturbations(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = int(rng.integers(2, 8))
            theta, phi, omega = random_instance(rng, m)
            gamma = float(rng.uniform(0.0, 3.0))
            best = smoothed_estimate(theta, phi, omega, gamma)
            for _ in range(20):
                step = rng.normal(0.0, rng.uniform(1e-4, 1.0), size=m)
                perturbed = penalized_objective(best.values + step, theta, phi, omega, gamma)
                assert perturbed >= best.objective_value - 1e-9

    @pytest.mark.parametrize(
        "delta, message",
        [
            pytest.param(["a", "b"], "delta must be a vector of real numbers", id="text"),
            pytest.param([1.0, np.nan], "delta contains non-finite entries", id="non-finite"),
            pytest.param([True, False], "delta must be a vector of real numbers", id="bool"),
        ],
    )
    def test_bad_delta_rejected(self, delta, message):
        with pytest.raises(ValidationError, match=message):
            penalized_objective(delta, TOY_THETA, TOY_PHI, TOY_OMEGA, 1.0)

    def test_delta_of_another_length_than_theta_rejected(self):
        with pytest.raises(ValidationError, match="^theta_bayes has length 2, expected 3$"):
            penalized_objective([1.0, 2.0, 3.0], TOY_THETA, TOY_PHI, TOY_OMEGA, 1.0)

    def test_objective_makes_no_decomposition(self, monkeypatch):
        factors = count_eigendecompositions(monkeypatch)
        assert penalized_objective([2.0, 2.0], TOY_THETA, TOY_PHI, TOY_OMEGA, 1.0) == 2.0
        assert factors == []

    def test_benchmarked_is_a_minimum_on_the_feasible_set(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            m = int(rng.integers(3, 8))
            theta, phi, omega = random_instance(rng, m)
            gamma = float(rng.uniform(0.0, 3.0))
            k = int(rng.integers(1, m - 1))
            M = rng.normal(size=(k, m))
            t = rng.normal(size=k)
            best = benchmarked_estimate(theta, phi, omega, gamma, ConstraintSet(M, t))
            basis = null_space(M)
            for _ in range(20):
                step = basis @ rng.normal(0.0, rng.uniform(1e-4, 1.0), size=basis.shape[1])
                perturbed = penalized_objective(best.values + step, theta, phi, omega, gamma)
                assert perturbed >= best.objective_value - 1e-9

    def test_uniform_weights_preserve_the_total(self):
        rng = np.random.default_rng(19)
        for c in (0.5, 1.0, 4.0):
            theta, _, omega = random_instance(rng, 6)
            phi = np.full(6, c)
            smooth = smoothed_estimate(theta, phi, omega, 2.0).values
            assert smooth.sum() == pytest.approx(theta.sum(), abs=1e-9)

    def test_large_gamma_shrinks_to_weighted_mean(self):
        rng = np.random.default_rng(20)
        # connected graph: ring plus random chords
        m = 7
        q = np.zeros((m, m))
        for i in range(m):
            q[i, (i + 1) % m] = q[(i + 1) % m, i] = 1.0
        from smallarea import SimilaritySpec, build_omega

        omega = build_omega(SimilaritySpec.from_matrix(q)).omega
        theta = rng.normal(0.0, 3.0, size=m)
        phi = rng.uniform(0.5, 2.0, size=m)
        smooth = smoothed_estimate(theta, phi, omega, 1e8).values
        target = float(phi @ theta / phi.sum())
        np.testing.assert_allclose(smooth, np.full(m, target), atol=1e-3)

    def test_ill_conditioned_sigma_is_numerical_error(self):
        # at gamma = 1e15 Sigma's condition number is about 4e15: the shared
        # solve refuses it instead of returning an imprecise estimate
        with pytest.raises(NumericalError, match="ill-conditioned"):
            smoothed_estimate(TOY_THETA, TOY_PHI, TOY_OMEGA, 1e15)
        with pytest.raises(NumericalError, match="ill-conditioned"):
            benchmarked_estimate(
                TOY_THETA, TOY_PHI, TOY_OMEGA, 1e15, ConstraintSet([[0.5, 0.5]], [3.0])
            )
        with pytest.raises(NumericalError, match="held-out area 0 is unidentified at gamma=1e\\+15"):
            loo_solution(TOY_THETA, TOY_PHI, TOY_OMEGA, 1e15, 0)

    def test_indefinite_sigma_is_numerical_error(self):
        # a symmetric but indefinite omega makes Sigma = [[0, 1], [1, 0]],
        # well conditioned but indefinite: its stationary point [3, 1] is a
        # saddle, not a minimizer, so the solve refuses it
        omega = -0.5 * TOY_OMEGA
        with pytest.raises(NumericalError, match="ill-conditioned at gamma=1"):
            smoothed_estimate(TOY_THETA, TOY_PHI, omega, 1.0)
        with pytest.raises(NumericalError, match="ill-conditioned at gamma=1"):
            benchmarked_estimate(TOY_THETA, TOY_PHI, omega, 1.0, ConstraintSet([[0.5, 0.5]], [2.0]))

    def test_roughness_non_increasing_in_gamma(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            m = int(rng.integers(3, 9))
            theta, phi, omega = random_instance(rng, m)
            grid = np.geomspace(1e-3, 1e3, 10)
            rough = [
                float(v @ omega @ v)
                for v in (smoothed_estimate(theta, phi, omega, g).values for g in grid)
            ]
            assert all(b <= a + 1e-9 for a, b in zip(rough, rough[1:]))


class TestUnitLevel:
    def test_smoothed_validates_each_omega_once(self, monkeypatch):
        layout = UnitLevelLayout((1, 2), TOY_PHI, np.ones(3), 1.0, 0.5)
        built, checked = count_solvers_and_omega_checks(monkeypatch)
        unit_level_smoothed(layout, TOY_THETA, np.zeros(3), TOY_OMEGA, np.eye(3))
        assert built == [_SigmaSolver] * 2 and checked == [(2, 2), (3, 3)]

    def _layout(self, gamma_area=0.7, gamma_unit=1.3):
        return UnitLevelLayout(
            units_per_area=(1, 2),
            phi=np.array([1.0, 2.0]),
            xi=np.array([1.5, 0.5, 1.0]),
            gamma_area=gamma_area,
            gamma_unit=gamma_unit,
        )

    def test_zero_gammas_return_inputs(self):
        layout = self._layout(0.0, 0.0)
        theta_a = np.array([1.0, 2.0])
        theta_u = np.array([0.5, 1.5, 2.5])
        area, unit = unit_level_smoothed(
            layout, theta_a, theta_u, np.zeros((2, 2)), np.zeros((3, 3))
        )
        assert np.array_equal(area.values, theta_a)
        assert np.array_equal(unit.values, theta_u)

    def test_stacked_solve_equals_separate_solves(self):
        rng = np.random.default_rng(31)
        layout = self._layout()
        theta_a, phi_a, omega_a = random_instance(rng, 2)
        theta_u, _, omega_u = random_instance(rng, 3)
        layout = UnitLevelLayout((1, 2), phi_a, layout.xi, 0.7, 1.3)
        area, unit = unit_level_smoothed(layout, theta_a, theta_u, omega_a, omega_u)
        # single stacked solve with per-tier penalties folded in
        phi_stack = np.concatenate([layout.phi, layout.xi])
        omega_stack = block_diag(layout.gamma_area * omega_a, layout.gamma_unit * omega_u)
        stacked = smoothed_estimate(
            np.concatenate([theta_a, theta_u]), phi_stack, omega_stack, 1.0
        ).values
        np.testing.assert_allclose(stacked[:2], area.values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(stacked[2:], unit.values, rtol=0, atol=1e-12)

    def test_area_block_reproduces_worked_example(self):
        layout = UnitLevelLayout((1, 1), TOY_PHI, np.ones(2), 1.0, 0.0)
        area, _ = unit_level_smoothed(layout, TOY_THETA, np.zeros(2), TOY_OMEGA, np.zeros((2, 2)))
        np.testing.assert_allclose(area.values, [1.8, 2.2], atol=1e-14)

    def test_benchmarked_noop_when_targets_already_met(self):
        rng = np.random.default_rng(41)
        layout = self._layout()
        theta_a, _, omega_a = random_instance(rng, 2)
        theta_u, _, omega_u = random_instance(rng, 3)
        area, unit = unit_level_smoothed(layout, theta_a, theta_u, omega_a, omega_u)
        # weights reproducing the already-attained area values: put all the
        # within-area weight on one unit and rescale to hit the target
        weights = np.zeros((2, 3))
        weights[0, 0] = area.values[0] / unit.values[0]
        weights[1, 1] = area.values[1] / unit.values[1]
        eta = np.array([1.0, 0.0])
        t_area = float(area.values[0])
        result = unit_level_benchmarked(
            layout, theta_a, theta_u, omega_a, omega_u, eta, t_area, weights
        )
        np.testing.assert_allclose(result.values[:2], area.values, atol=1e-8)
        np.testing.assert_allclose(result.values[2:], unit.values, atol=1e-8)

    def test_fully_pinned_single_area(self):
        layout = UnitLevelLayout((2,), np.array([1.0]), np.array([1.0, 1.0]), 0.5, 0.5)
        omega_a = np.zeros((1, 1))
        omega_u = np.array([[1.0, -1.0], [-1.0, 1.0]])
        result = unit_level_benchmarked(
            layout,
            np.array([2.0]),
            np.array([1.0, 3.0]),
            omega_a,
            omega_u,
            eta=np.array([1.0]),
            t_area=5.0,
            unit_weights=np.array([[0.5, 0.5]]),
        )
        assert result.values[0] == pytest.approx(5.0, abs=1e-10)
        assert 0.5 * (result.values[1] + result.values[2]) == pytest.approx(5.0, abs=1e-8)

    def test_random_instance_matches_kkt_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            layout = UnitLevelLayout(
                (2, 2),
                rng.uniform(0.5, 2.0, size=2),
                rng.uniform(0.5, 2.0, size=4),
                float(rng.uniform(0.1, 2.0)),
                float(rng.uniform(0.1, 2.0)),
            )
            theta_a, _, omega_a = random_instance(rng, 2)
            theta_u, _, omega_u = random_instance(rng, 4)
            eta = rng.uniform(0.2, 1.0, size=2)
            t_area = float(rng.normal())
            weights = np.zeros((2, 4))
            weights[0, :2] = rng.uniform(0.2, 1.0, size=2)
            weights[1, 2:] = rng.uniform(0.2, 1.0, size=2)
            result = unit_level_benchmarked(
                layout, theta_a, theta_u, omega_a, omega_u, eta, t_area, weights
            )
            M = np.zeros((3, 6))
            M[0, :2] = eta
            M[1:, :2] = -np.eye(2)
            M[1:, 2:] = weights
            t = np.array([t_area, 0.0, 0.0])
            oracle = kkt_solve(
                np.concatenate([theta_a, theta_u]),
                np.concatenate([layout.phi, layout.xi]),
                block_diag(layout.gamma_area * omega_a, layout.gamma_unit * omega_u),
                1.0,
                M,
                t,
            )
            np.testing.assert_allclose(result.values, oracle, atol=1e-8)
            assert np.max(np.abs(M @ result.values - t)) <= 1e-8

    def test_sparsity_violation_rejected(self):
        layout = self._layout()
        weights = np.zeros((2, 3))
        weights[0, 2] = 1.0  # unit 2 belongs to area 1
        with pytest.raises(ValidationError, match="outside"):
            unit_level_benchmarked(
                layout,
                np.zeros(2),
                np.zeros(3),
                np.zeros((2, 2)),
                np.zeros((3, 3)),
                np.array([1.0, 1.0]),
                0.0,
                weights,
            )

    def test_zero_eta_rejected(self):
        layout = self._layout()
        weights = np.zeros((2, 3))
        weights[0, 0] = 1.0
        weights[1, 1:] = 0.5
        with pytest.raises(ValidationError, match="rank deficient"):
            unit_level_benchmarked(
                layout,
                np.zeros(2),
                np.zeros(3),
                np.zeros((2, 2)),
                np.zeros((3, 3)),
                np.zeros(2),
                0.0,
                weights,
            )


class TestMultivariateStack:
    def test_single_component_is_identity_packaging(self):
        rng = np.random.default_rng(51)
        theta, phi, omega = random_instance(rng, 4)
        stacked = stack_multivariate([(theta, phi, omega)])
        assert np.array_equal(stacked.theta_bayes, theta)
        assert np.array_equal(stacked.phi, phi)
        assert np.array_equal(stacked.omega, omega)

    def test_identical_components_duplicate_the_solution(self):
        rng = np.random.default_rng(52)
        theta, phi, omega = random_instance(rng, 3)
        stacked = stack_multivariate([(theta, phi, omega)] * 2)
        single = smoothed_estimate(theta, phi, omega, 0.9).values
        joint = smoothed_estimate(stacked.theta_bayes, stacked.phi, stacked.omega, 0.9).values
        np.testing.assert_allclose(joint, np.concatenate([single, single]), rtol=0, atol=1e-15)

    def test_stacked_solve_equals_componentwise_solves(self):
        rng = np.random.default_rng(53)
        comps = [random_instance(rng, 4) for _ in range(2)]
        stacked = stack_multivariate(comps)
        gamma = 1.7
        joint = smoothed_estimate(stacked.theta_bayes, stacked.phi, stacked.omega, gamma).values
        separate = np.concatenate(
            [smoothed_estimate(t, p, o, gamma).values for t, p, o in comps]
        )
        np.testing.assert_allclose(joint, separate, rtol=0, atol=1e-12)

    def test_inconsistent_sizes_rejected(self):
        rng = np.random.default_rng(54)
        a = random_instance(rng, 3)
        b = random_instance(rng, 4)
        with pytest.raises(ValidationError, match="expected 3"):
            stack_multivariate([a, b])


# The paper's invariants of the closed forms, checked through the solver the
# pipeline shares between its calls.  held_out_problems builds omega with
# build_omega, so omega annihilates constants.  Derandomized, so every run
# of the suite checks the same examples.
@pytest.mark.parametrize(
    "solver_class", [_SigmaSolver, _OneGammaSolver, _CGSolver], ids=["eigen", "one-gamma", "one-gamma-cg"]
)
class TestInvariants:
    """Each invariant holds for every route: the eigen route serves a grid,
    the one-gamma routes, LU and conjugate gradients, a fixed-gamma run."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(held_out_problems())
    def test_zero_gamma_returns_theta_exactly(self, solver_class, problem):
        theta, phi, omega, gamma, _, constraints = problem
        solver = solver_class(phi, omega, constraints)
        solver.solve(theta, gamma)  # the solver has served another gamma first
        np.testing.assert_array_equal(smoothed_estimate(theta, phi, solver, 0.0).values, theta)
        np.testing.assert_array_equal(smoothed_estimate(theta, phi, omega, 0.0).values, theta)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        held_out_problems(weights=lambda m: _floats(m, -1.0, 2.0).map(lambda e: 10.0**e)),
        st.floats(-100.0, 100.0),
    )
    def test_constants_pass_through(self, solver_class, problem, c):
        # Sigma 1 c = Phi 1 c, so the smoothed estimate of a constant is that
        # constant, and so is the benchmarked one when the constant meets M d = t
        theta, phi, omega, gamma, _, constraints = problem
        const = np.full(len(theta), c)
        if constraints is not None:
            constraints = ConstraintSet(constraints.M, constraints.M @ const)
        solver = solver_class(phi, omega, constraints)
        tol = 1e-12 * (1.0 + abs(c))
        got = [smoothed_estimate(const, phi, solver, gamma).values]
        if constraints is not None:
            got.append(benchmarked_estimate(const, phi, solver, gamma, constraints).values)
        for values in got:
            assert np.max(np.abs(values - c)) <= tol

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        held_out_problems(
            weights=lambda m: _floats(m, -1.0, 2.0).map(lambda e: 10.0**e),
            gammas=st.sampled_from([1e-4, 1e-2, 1.0, 1e2]),
        )
    )
    def test_benchmarked_residual_within_bound(self, solver_class, problem):
        theta, phi, omega, gamma, _, constraints = problem
        assume(constraints is not None)
        solver = solver_class(phi, omega, constraints)
        values = solver.solve(theta, gamma, constrained=True)
        residual = np.max(np.abs(constraints.M @ values - constraints.t))
        assert residual <= _residual_bound(constraints.t)
        fit = benchmarked_estimate(theta, phi, solver, gamma, constraints)
        np.testing.assert_array_equal(fit.values, values)
        assert fit.constraint_residual == residual

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        held_out_problems(weights=_wide_weights, gammas=st.sampled_from([1e-4, 1e2])),
        st.floats(-100.0, 100.0),
    )
    def test_invariants_over_twelve_decades_of_weights(self, solver_class, problem, c):
        # the same invariants with loss weights over twelve decades, to within
        # machine epsilon times the oracle's condition numbers (see
        # test_selection.test_wide_weights_at_the_grid_ends)
        theta, phi, omega, gamma, _, constraints = problem
        M = None if constraints is None else constraints.M
        kappa, gram = condition_numbers(phi, omega, gamma, M)
        solver = solver_class(phi, omega, constraints)
        solver.solve(theta, gamma)
        np.testing.assert_array_equal(smoothed_estimate(theta, phi, solver, 0.0).values, theta)
        const = np.full(len(theta), c)
        assert _close(smoothed_estimate(const, phi, solver, gamma).values, const, const, phi, 1e-13 * kappa)
        if constraints is not None and kappa * gram <= 1e6:
            values = solver.solve(theta, gamma, constrained=True)
            assert np.max(np.abs(M @ values - constraints.t)) <= _residual_bound(constraints.t)
            on_target = ConstraintSet(M, M @ const)
            fit = benchmarked_estimate(const, phi, solver_class(phi, omega, on_target), gamma, on_target).values
            assert _close(fit, const, const, phi, 1e-13 * kappa * gram)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(held_out_problems(weights=_wide_weights, gammas=st.floats(-4.0, 2.0).map(lambda e: 10.0**e)))
    def test_benchmarked_over_twelve_decades_of_weights(self, solver_class, problem):
        # wherever the bordered KKT system solves, the benchmarked estimate is
        # within machine epsilon times the oracle's condition numbers of it,
        # and a refusal comes from a condition number, never from the
        # residual check: one projection step through the Gram matrix left a
        # residual of about cond(Gram) * eps, which the check refused
        theta, phi, omega, gamma, _, constraints = problem
        assume(constraints is not None and len(theta) >= 3)
        want = kkt_solve(theta, phi, omega, gamma, constraints.M, constraints.t)
        kappa, gram = condition_numbers(phi, omega, gamma, constraints.M)
        try:
            got = benchmarked_estimate(theta, phi, solver_class(phi, omega, constraints), gamma, constraints).values
        except NumericalError as err:
            assert "residual" not in str(err)
            assert max(kappa, gram) > _CONDITION_LIMIT / 10
        else:
            assert _close(got, want, theta, phi, 1e-13 * kappa * gram)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(held_out_problems(gammas=st.sampled_from([0.0, 1e-2, 1.0, 1e2])), st.integers(0, 2**32 - 1))
    def test_batch_rows_equal_their_estimates_alone(self, solver_class, problem, seed):
        # each row of one batched solve is the estimate of that row alone to
        # within 1e-13 relative: the two differ only in the summation order
        # of the matrix products.  A NaN row stays one NaN row, and at
        # gamma = 0 an unconstrained row is its theta exactly.
        theta, phi, omega, gamma, _, constraints = problem
        thetas = theta + np.random.default_rng(seed).normal(size=(5, len(theta)))
        thetas[2, -1] = np.nan
        solver = solver_class(phi, omega, constraints)
        for constrained in {False, constraints is not None}:
            batch = _batch_estimates(thetas, solver, gamma, constrained)
            assert np.isnan(batch[2]).all()
            for row, got in zip(np.delete(thetas, 2, 0), np.delete(batch, 2, 0)):
                if constrained:
                    alone = benchmarked_estimate(row, phi, solver, gamma, constraints).values
                else:
                    alone = smoothed_estimate(row, phi, solver, gamma).values
                assert np.max(np.abs(got - alone)) <= 1e-13 * np.max(np.abs(alone))
                if gamma == 0.0 and not constrained:
                    np.testing.assert_array_equal(got, row)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(held_out_problems(weights=_wide_weights), st.floats(0.1, 10.0))
    def test_one_negative_eigenvalue(self, solver_class, problem, mu):
        # omega - (mu/m) 11' has one negative eigenvalue, as has the pencil
        # (omega, Phi): Sigma(gamma) is positive definite exactly for gamma
        # below g = -1/lam_min.  At g/2 the estimates are the KKT solution;
        # at 2g the solver refuses Sigma.
        theta, phi, omega, _, _, constraints = problem
        omega = omega - mu / len(theta)
        g = -1.0 / eigh(omega, np.diag(phi), eigvals_only=True)[0]
        M, t = (None, None) if constraints is None else (constraints.M, constraints.t)
        kappa, gram = condition_numbers(phi, omega, g / 2, M)
        assert kappa <= _CONDITION_LIMIT / 2
        solver = solver_class(phi, omega, constraints)
        smooth = smoothed_estimate(theta, phi, solver, g / 2).values
        assert _close(smooth, kkt_solve(theta, phi, omega, g / 2), theta, phi, 1e-13 * kappa)
        if constraints is not None and kappa * gram <= 1e6:
            bench = benchmarked_estimate(theta, phi, solver, g / 2, constraints).values
            assert _close(bench, kkt_solve(theta, phi, omega, g / 2, M, t), theta, phi, 1e-13 * kappa * gram)
        with pytest.raises(NumericalError, match=re.escape(f"ill-conditioned at gamma={2 * g:g}") + "$"):
            smoothed_estimate(theta, phi, solver, 2 * g)
        if constraints is not None:
            with pytest.raises(NumericalError, match=re.escape(f"ill-conditioned at gamma={2 * g:g}") + "$"):
                benchmarked_estimate(theta, phi, solver, 2 * g, constraints)


def test_zero_gamma_one_gamma_solves_take_no_eigendecomposition(monkeypatch):
    # at gamma = 0 the unconstrained solves return theta and the
    # constrained ones take the LU route, for one estimate and for a batch
    rng = np.random.default_rng(3)
    m = 6
    theta, phi, omega = random_instance(rng, m)
    thetas = theta + rng.normal(size=(4, m))
    constraints = ConstraintSet(np.full((1, m), 1.0 / m), [0.5])
    solver = _OneGammaSolver(phi, omega, constraints)
    factors = count_eigendecompositions(monkeypatch)
    smooth = smoothed_estimate(theta, phi, solver, 0.0).values
    bench = benchmarked_estimate(theta, phi, solver, 0.0, constraints).values
    smooth_rows, bench_rows = (_batch_estimates(thetas, solver, 0.0, c) for c in (False, True))
    assert factors == []
    np.testing.assert_array_equal(smooth, theta)
    np.testing.assert_array_equal(smooth_rows, thetas)
    np.testing.assert_allclose(bench, kkt_solve(theta, phi, omega, 0.0, constraints.M, constraints.t), atol=1e-12)
    for row, got in zip(thetas, bench_rows):
        np.testing.assert_allclose(got, kkt_solve(row, phi, omega, 0.0, constraints.M, constraints.t), atol=1e-12)


def test_one_gamma_solver_falls_back_where_the_discs_cannot_certify(monkeypatch):
    # a path graph's Laplacian at a gamma whose I + gamma K the eigenvalues
    # accept but Gershgorin's discs cannot certify: the one-gamma solver
    # takes one eigendecomposition, no m x m LU solve, and returns the
    # eigen route's bits
    rng = np.random.default_rng(7)
    m = 12
    theta, phi = rng.normal(size=m), 10.0 ** rng.uniform(-1.0, 1.0, m)
    adjacency = np.diag(np.ones(m - 1), 1)
    omega = np.diag((adjacency + adjacency.T).sum(axis=1)) - adjacency - adjacency.T
    constraints = ConstraintSet(np.full((1, m), 1.0 / m), [0.5])
    r = 1.0 / np.sqrt(phi)
    lam = np.linalg.eigvalsh(r[:, None] * omega * r)
    solver = _OneGammaSolver(phi, omega, constraints)
    hi = solver._bounds[1]
    g = _CONDITION_LIMIT / np.sqrt(hi * lam[-1])
    assert (1.0 + g * lam[-1]) / (1.0 + g * lam[0]) < _CONDITION_LIMIT < 1.0 + g * hi
    eigen = _SigmaSolver(phi, omega, constraints)
    want = [eigen.solve(theta, g, constrained) for constrained in (False, True)]
    factors = count_eigendecompositions(monkeypatch)
    solves = count_solves(monkeypatch, m)
    for constrained, values in zip((False, True), want):
        np.testing.assert_array_equal(solver.solve(theta, g, constrained), values)
    assert factors == [(m, m)] and solves == []


def _lattice_omega(rows, cols, isolated=0):
    """The penalty of a rows x cols lattice of unit similarities, areas
    numbered row by row, plus ``isolated`` areas with no neighbour."""
    from smallarea import SimilaritySpec, build_omega

    edges = [(i, i + 1, 1.0) for i in range(rows * cols) if (i + 1) % cols]
    edges += [(i, i + cols, 1.0) for i in range(rows * cols - cols)]
    return build_omega(SimilaritySpec(rows * cols + isolated, edges)).omega


def _lattice_problem(rows=6, cols=5, isolated=3, seed=11):
    """A rows x cols lattice of unit similarities plus ``isolated`` areas
    with no neighbour, loss weights over two decades and two positive
    benchmark rows."""
    rng = np.random.default_rng(seed)
    m = rows * cols + isolated
    omega = _lattice_omega(rows, cols, isolated)
    phi = 10.0 ** rng.uniform(-1.0, 1.0, m)
    theta = 10.0 + rng.normal(size=m)
    constraints = ConstraintSet(rng.uniform(0.5, 1.5, (2, m)), [9.0, 11.0])
    return theta, phi, omega, constraints


@pytest.mark.parametrize("gamma", [0.05, 0.5, 5.0, 50.0])
def test_one_gamma_cg_matches_the_kkt_reference_on_a_lattice(monkeypatch, gamma):
    # the conjugate-gradient route, taken without an eigendecomposition or
    # an LU solve, is the bordered KKT solution on a lattice with isolated
    # areas; a batch row is that row solved alone, and an empty batch is an
    # empty result
    theta, phi, omega, constraints = _lattice_problem()
    M, t = constraints.M, constraints.t
    kappa, gram = condition_numbers(phi, omega, gamma, M)
    thetas = theta + np.random.default_rng(1).normal(size=(4, len(theta)))
    want = kkt_solve(theta, phi, omega, gamma), kkt_solve(theta, phi, omega, gamma, M, t)
    solver = _CGSolver(phi, omega, constraints)
    factors, solves = count_eigendecompositions(monkeypatch), count_solves(monkeypatch, len(theta))
    smooth = solver.solve(theta, gamma)
    bench = solver.solve(theta, gamma, constrained=True)
    assert _close(smooth, want[0], theta, phi, 1e-13 * kappa)
    assert _close(bench, want[1], theta, phi, 1e-13 * kappa * gram)
    for constrained in (False, True):
        batch = _batch_estimates(thetas, solver, gamma, constrained)
        for row, got in zip(thetas, batch):
            alone = solver.solve(row, gamma, constrained)
            assert np.max(np.abs(got - alone)) <= 1e-13 * np.max(np.abs(alone))
        assert _batch_estimates(thetas[:0], solver, gamma, constrained).shape == (0, len(theta))
    assert factors == [] and solves == []


@pytest.mark.parametrize("graph", ["star", "complete"])
def test_one_gamma_cg_on_a_hub_or_dense_omega_matches_the_kkt_reference(monkeypatch, graph):
    # one area similar to every other, or every pair similar: p = m - 1
    # neighbours, gathered 8 at a time for a batch at a fixed gamma
    theta, phi, _, constraints = _lattice_problem()
    m = len(theta)
    adjacency = np.ones((m, m)) - np.eye(m)
    if graph == "star":
        adjacency[1:, 1:] = 0.0
    omega = np.diag(adjacency.sum(axis=1)) - adjacency
    thetas = theta + np.random.default_rng(2).normal(size=(5, m))
    bordered = (), (constraints.M, constraints.t)
    want = [[kkt_solve(row, phi, omega, 0.5, *extra) for row in thetas] for extra in bordered]
    solver = _CGSolver(phi, omega, constraints)
    assert solver._degree == m - 1
    solves = count_solves(monkeypatch, m)
    for constrained, references in zip((False, True), want):
        got = _batch_estimates(thetas, solver, 0.5, constrained)
        for row, values, reference in zip(thetas, got, references):
            assert _close(values, reference, row, phi, 1e-11)
    assert solves == []


@pytest.mark.parametrize("gamma", [0.5, 1e6])
def test_one_gamma_cg_on_an_edgeless_omega_returns_theta(monkeypatch, gamma):
    # with no similarity omega is zero: CG starts at theta with a zero
    # residual, so the smoothed estimate is theta exactly at any gamma
    theta, phi, _, constraints = _lattice_problem()
    omega = np.zeros((len(theta),) * 2)
    want = kkt_solve(theta, phi, omega, gamma, constraints.M, constraints.t)
    solver = _CGSolver(phi, omega, constraints)
    factors, solves = count_eigendecompositions(monkeypatch), count_solves(monkeypatch, len(theta))
    np.testing.assert_array_equal(smoothed_estimate(theta, phi, solver, gamma).values, theta)
    bench = benchmarked_estimate(theta, phi, solver, gamma, constraints).values
    assert _close(bench, want, theta, phi, 1e-13)
    assert factors == [] and solves == []


@pytest.mark.parametrize(
    "constant, value",
    [("_CG_SLACK", -(10**9)), ("_CG_ROUNDING", 0.0)],
    ids=["iteration-cap", "true-residual"],
)
def test_one_gamma_cg_not_accepted_returns_the_lu_route(monkeypatch, constant, value):
    # a cap below zero stops CG before its first iteration; with no
    # rounding allowed no x passes the true-residual check.  Either way the
    # solve takes one m x m LU solve, no eigendecomposition, and returns
    # the LU route's bits, which the one-gamma solver takes on its own at
    # this size
    theta, phi, omega, constraints = _lattice_problem()
    gamma, m = 0.5, len(theta)
    lu = _OneGammaSolver(phi, omega, constraints)
    solves = count_solves(monkeypatch, m)
    want = [lu.solve(theta, gamma, constrained) for constrained in (False, True)]
    assert solves == [(m, m)] * 2
    monkeypatch.setattr(estimators, constant, value)
    solver = _CGSolver(phi, omega, constraints)
    factors = count_eigendecompositions(monkeypatch)
    for constrained, values in zip((False, True), want):
        np.testing.assert_array_equal(solver.solve(theta, gamma, constrained), values)
    assert factors == [] and solves == [(m, m)] * 4


@pytest.mark.parametrize("d", [1e-4, 1e-8, 1e-12, 1e-20, 1e-200])
def test_one_gamma_cg_with_one_dominant_loss_weight_matches_the_kkt_reference(monkeypatch, d):
    # one area's phi = 1/D dwarfs the others' and dominates ||Phi theta||;
    # with residuals scaled by Sigma's diagonal CG still smooths every other
    # area, with no LU solve and no warning
    theta, phi, omega, constraints = _lattice_problem()
    phi[9] = 1.0 / d
    M, t = constraints.M, constraints.t
    want = kkt_solve(theta, phi, omega, 0.5), kkt_solve(theta, phi, omega, 0.5, M, t)
    solver = _CGSolver(phi, omega, constraints)
    solves = count_solves(monkeypatch, len(theta))
    for constrained, reference in zip((False, True), want):
        got = solver.solve(theta, 0.5, constrained)
        assert np.max(np.abs(got - reference) / (1.0 + np.abs(reference))) <= 1e-12
    assert solves == []


def test_one_gamma_cg_that_overflows_returns_the_lu_route(monkeypatch):
    # thetas near 1e160 square past the largest float in CG's residual
    # norms: CG gives the solve up, without a warning, to one LU solve,
    # which is the bordered KKT solution
    theta, phi, omega, constraints = _lattice_problem()
    theta = 1e160 * (theta - 10.0)
    M, t = constraints.M, 1e160 * constraints.t
    want = kkt_solve(theta, phi, omega, 0.5), kkt_solve(theta, phi, omega, 0.5, M, t)
    solver = _CGSolver(phi, omega, ConstraintSet(M, t))
    returned, cg = [], _OneGammaSolver._cg

    def recorded(*args):
        returned.append(cg(*args))
        return returned[-1]

    monkeypatch.setattr(_OneGammaSolver, "_cg", recorded)
    solves = count_solves(monkeypatch, len(theta))
    for constrained, reference in zip((False, True), want):
        got = solver.solve(theta, 0.5, constrained)
        assert np.max(np.abs(got - reference)) <= 1e-13 * np.max(np.abs(reference))
    assert returned == [None, None] and solves == [(len(theta), len(theta))] * 2


@pytest.mark.parametrize(
    "graph, gamma, rows, route",
    [
        ("lattice", 0.5, 1, "cg"),
        ("lattice", 0.5, 8, "cg"),
        ("lattice", 5.0, 1, "cg"),
        ("lattice", 5.0, 8, "lu"),
        ("lattice", 500.0, 1, "lu"),
        ("lattice", 0.5, 200, "lu"),
        ("star", 0.5, 1, "lu"),
        ("complete", 0.5, 1, "lu"),
    ],
)
def test_one_gamma_solver_takes_cg_only_where_its_cap_costs_less_than_lu(monkeypatch, graph, gamma, rows, route):
    # a 40 x 25 lattice, the benchmark's shape, with loss weights over the
    # benchmark's range: CG for one row or a small batch at a moderate
    # gamma; LU at a large gamma, for a wide batch, and on a hub or dense
    # omega, whose padded neighbours are then never built.  Either route
    # is the eigen route's solution.
    m = 1000
    rng = np.random.default_rng(5)
    phi = rng.uniform(0.125, 5.0, m)
    omega = _lattice_omega(40, 25)
    if graph != "lattice":
        adjacency = np.ones((m, m)) - np.eye(m)
        if graph == "star":
            adjacency[1:, 1:] = 0.0
        omega = np.diag(adjacency.sum(axis=1)) - adjacency
    thetas = 10.0 + rng.normal(size=(rows, m))
    solver = _OneGammaSolver(phi, omega)
    solves = count_solves(monkeypatch, m)
    got = solver.solve(thetas, gamma)
    assert solves == ([(m, m)] if route == "lu" else [])
    assert ("_padded" in vars(solver)) == (route == "cg")
    want = _SigmaSolver(phi, omega).solve(thetas, gamma)
    assert np.max(np.abs(got - want)) <= 1e-11 * (1.0 + np.max(np.abs(want)))
