import numpy as np
import pytest
from scipy.linalg import block_diag, null_space

from smallarea import (
    ConstraintSet,
    LossWeights,
    NumericalError,
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

from oracles import kkt_solve, quad_minimize, random_instance

TOY_OMEGA = np.array([[2.0, -2.0], [-2.0, 2.0]])
TOY_THETA = np.array([1.0, 3.0])
TOY_PHI = np.ones(2)


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
