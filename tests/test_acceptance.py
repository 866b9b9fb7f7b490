"""Acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them inline).
Tolerances are pinned in the assertions, and the timed criteria assert
their own runtime budgets.
"""

import functools
import time

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.stats import chisquare

from smallarea import (
    AreaDataset,
    BootstrapConfig,
    ConstraintSet,
    GibbsConfig,
    RunConfig,
    SimilaritySpec,
    UnitLevelLayout,
    benchmarked_estimate,
    benchmarked_estimate_single,
    bootstrap_mse,
    build_omega,
    cross_validate,
    gibbs_fit,
    run_pipeline,
    smoothed_estimate,
    unit_level_benchmarked,
    unit_level_smoothed,
)
from smallarea.datasets import synthetic_dataset_path, us_state_borders_path

from oracles import (
    double_sum_penalty,
    dropped_term_minimize,
    kkt_solve,
    per_replicate,
    random_connected_instance,
    random_instance,
    random_similarity,
)

TOY_OMEGA = np.array([[2.0, -2.0], [-2.0, 2.0]])
TOY_THETA = np.array([1.0, 3.0])
TOY_PHI = np.ones(2)


def criterion(n, detail):
    """Run the body, print one pass/fail line, re-raise on failure."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {n}: FAIL - {detail}")
                raise
            elapsed = time.perf_counter() - start
            print(f"criterion {n}: PASS ({elapsed:.1f}s) - {detail}")

        return run

    return wrap


@criterion(1, "penalty-matrix identity suite (quadratic form, kernel, Laplacian)")
def test_criterion_1_laplacian_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(100):
        m = int(rng.integers(2, 11))
        q = random_similarity(rng, m)
        omega = build_omega(SimilaritySpec.from_matrix(q)).omega
        d = rng.normal(0.0, 3.0, size=m)
        expected = double_sum_penalty(d, q)
        got = d @ omega @ d
        assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))
        assert np.max(np.abs(omega @ np.ones(m))) <= 1e-12
    for _ in range(25):
        m = int(rng.integers(2, 11))
        a = np.triu((rng.random((m, m)) < 0.5).astype(float), k=1)
        a = a + a.T
        omega = build_omega(SimilaritySpec.from_matrix(a)).omega
        lap = np.diag(a.sum(axis=1)) - a
        assert np.array_equal(omega, 2.0 * lap)
    assert time.perf_counter() - start < 5.0


@criterion(2, "closed forms match the generic KKT oracle; adjustment identity holds")
def test_criterion_2_closed_form_vs_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    for _ in range(200):
        m = int(rng.integers(2, 13))
        theta, phi, omega = random_instance(rng, m)
        gamma = float(rng.uniform(0.0, 5.0))
        smooth = smoothed_estimate(theta, phi, omega, gamma).values
        np.testing.assert_allclose(smooth, kkt_solve(theta, phi, omega, gamma), atol=1e-8)
        k = int(rng.integers(1, min(4, m + 1)))
        M = rng.normal(size=(k, m))
        t = rng.normal(size=k)
        bench = benchmarked_estimate(theta, phi, omega, gamma, ConstraintSet(M, t)).values
        np.testing.assert_allclose(bench, kkt_solve(theta, phi, omega, gamma, M, t), atol=1e-8)
        # adjustment identity: the benchmarked solution is the smoothed one
        # plus a multiplier correction through the penalized system
        sigma = np.diag(phi) + gamma * omega
        sinv_mt = np.linalg.solve(sigma, M.T)
        adjust = sinv_mt @ np.linalg.solve(M @ sinv_mt, t - M @ smooth)
        np.testing.assert_allclose(bench, smooth + adjust, atol=1e-10)
    assert time.perf_counter() - start < 10.0


@criterion(3, "worked two-area example reproduces the exact fractions")
def test_criterion_3_worked_example():
    smooth = smoothed_estimate(TOY_THETA, TOY_PHI, TOY_OMEGA, 1.0).values
    np.testing.assert_allclose(smooth, [9 / 5, 11 / 5], rtol=0, atol=1e-14)
    bench = benchmarked_estimate_single(
        TOY_THETA, TOY_PHI, TOY_OMEGA, 1.0, np.array([0.5, 0.5]), 3.0
    )
    np.testing.assert_allclose(bench.values, [14 / 5, 16 / 5], rtol=0, atol=1e-12)
    assert abs(0.5 * bench.values.sum() - 3.0) <= 1e-12
    assert bench.constraint_residual <= 1e-12


@criterion(4, "gamma limits: exact pass-through, shrinkage to weighted mean, roughness monotone")
def test_criterion_4_gamma_limits():
    rng = np.random.default_rng(404)
    theta, phi, omega = random_connected_instance(rng, 9)
    assert np.array_equal(smoothed_estimate(theta, phi, omega, 0.0).values, theta)
    limit = smoothed_estimate(theta, phi, omega, 1e8).values
    target = float(phi @ theta / phi.sum())
    np.testing.assert_allclose(limit, np.full(9, target), atol=1e-3)
    for _ in range(20):
        m = int(rng.integers(3, 9))
        theta, phi, omega = random_instance(rng, m)
        grid = np.geomspace(1e-3, 1e3, 10)
        rough = [
            float(v @ omega @ v)
            for v in (smoothed_estimate(theta, phi, omega, g).values for g in grid)
        ]
        assert all(later <= earlier + 1e-9 for earlier, later in zip(rough, rough[1:]))


@criterion(5, "two-tier problems: stacked solve decouples; benchmarked solve meets both constraint groups")
def test_criterion_5_unit_level():
    rng = np.random.default_rng(505)
    layout = UnitLevelLayout(
        (2, 2),
        rng.uniform(0.5, 2.0, size=2),
        rng.uniform(0.5, 2.0, size=4),
        0.8,
        1.4,
    )
    theta_a, _, omega_a = random_instance(rng, 2)
    theta_u, _, omega_u = random_instance(rng, 4)
    area, unit = unit_level_smoothed(layout, theta_a, theta_u, omega_a, omega_u)
    stacked = smoothed_estimate(
        np.concatenate([theta_a, theta_u]),
        np.concatenate([layout.phi, layout.xi]),
        block_diag(layout.gamma_area * omega_a, layout.gamma_unit * omega_u),
        1.0,
    ).values
    np.testing.assert_allclose(stacked, np.concatenate([area.values, unit.values]), atol=1e-12)

    for _ in range(10):
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
        assert np.max(np.abs(M @ result.values - t)) <= 1e-8
        oracle = kkt_solve(
            np.concatenate([theta_a, theta_u]),
            np.concatenate([layout.phi, layout.xi]),
            block_diag(layout.gamma_area * omega_a, layout.gamma_unit * omega_u),
            1.0,
            M,
            t,
        )
        np.testing.assert_allclose(result.values, oracle, atol=1e-8)


@criterion(6, "sampler recovers coefficients and matches the known-variance closed form")
def test_criterion_6_gibbs_recovery():
    start = time.perf_counter()
    beta_true = np.array([2.0, 1.0, -0.5])
    successes = 0
    for seed in range(20):
        rng = np.random.Generator(np.random.Philox(9000 + seed))
        m = 200
        X = np.column_stack([np.ones(m), rng.normal(size=m), rng.normal(size=m)])
        D = rng.uniform(0.5, 2.0, size=m)
        theta = X @ beta_true + rng.standard_normal(m)
        y = theta + np.sqrt(D) * rng.standard_normal(m)
        data = AreaDataset(
            tuple(f"a{i}" for i in range(m)), y, D, X[:, 1:], ("x1", "x2"), True
        )
        fit = gibbs_fit(data, GibbsConfig(n_iter=3000, n_burn=1000, seed=seed))
        sd = fit.beta_draws.std(axis=0, ddof=1)
        successes += bool(np.all(np.abs(fit.beta_mean - beta_true) <= 4.0 * sd))
    assert successes >= 19

    # known-variance run against the conjugate closed form
    sigma_u2 = 2.0
    rng = np.random.Generator(np.random.Philox(1000))
    m = 30
    x = rng.normal(size=m)
    D = rng.uniform(0.5, 2.0, size=m)
    theta = 5.0 + x + np.sqrt(sigma_u2) * rng.standard_normal(m)
    y = theta + np.sqrt(D) * rng.standard_normal(m)
    data = AreaDataset(tuple(f"a{i}" for i in range(m)), y, D, x[:, None], ("x",), True)
    fit = gibbs_fit(data, GibbsConfig(n_iter=20_000, n_burn=2_000, seed=0, fixed_sigma_u2=sigma_u2))
    X = data.X
    V = D + sigma_u2
    beta_gls = np.linalg.solve(X.T @ (X / V[:, None]), X.T @ (y / V))
    shrink = sigma_u2 / (sigma_u2 + D)
    closed = shrink * y + (1.0 - shrink) * (X @ beta_gls)
    mc_se = fit.theta_draws.std(axis=0, ddof=1) / np.sqrt(fit.ess)
    assert np.all(np.abs(fit.theta_bayes - closed) <= 3.0 * mc_se)
    assert time.perf_counter() - start < 120.0


@criterion(7, "cross-validation scores match the held-out oracle; minimum attained")
def test_criterion_7_cross_validation():
    grid = np.array([0.5, 1.0, 2.0])
    curve = cross_validate(TOY_THETA, TOY_PHI, TOY_OMEGA, grid)
    for k, g in enumerate(grid):
        oracle = 0.0
        for i in range(2):
            sol = dropped_term_minimize(TOY_THETA, TOY_PHI, TOY_OMEGA, g, i)
            oracle += TOY_PHI[i] * (sol[i] - TOY_THETA[i]) ** 2
        oracle /= 2.0
        assert abs(curve.scores[k] - oracle) <= 1e-9
    assert np.all(curve.scores >= 0)
    hat_score = curve.scores[list(curve.grid).index(curve.gamma_hat)]
    assert np.all(hat_score <= curve.scores)
    rng = np.random.default_rng(707)
    for _ in range(5):
        theta, phi, omega = random_connected_instance(rng, 6)
        c = cross_validate(theta, phi, omega, np.geomspace(0.01, 10, 8))
        hat = c.scores[list(c.grid).index(c.gamma_hat)]
        assert np.all(hat <= c.scores)


@criterion(8, "bootstrap: seeded determinism, MSE decomposition, uniform resampling")
def test_criterion_8_bootstrap():
    rng = np.random.default_rng(808)
    m = 10
    x = rng.normal(size=m)
    data = AreaDataset(
        tuple(f"a{i}" for i in range(m)),
        rng.normal(10.0, 2.0, size=m),
        rng.uniform(0.5, 2.0, size=m),
        x[:, None],
        ("x",),
    )
    theta_bm = data.y + rng.normal(0.0, 0.5, size=m)
    _, phi, omega = random_connected_instance(rng, m)

    def pipe(y_star):
        return smoothed_estimate(y_star, phi, omega, 0.7).values

    config = BootstrapConfig(n_replicates=200, seed=21)
    a = bootstrap_mse(data, theta_bm, per_replicate(pipe), config)
    b = bootstrap_mse(data, theta_bm, per_replicate(pipe), config)
    assert np.array_equal(a.replicates, b.replicates)
    assert np.array_equal(a.mse, b.mse) and np.array_equal(a.bias, b.bias)
    variance = np.mean((a.replicates - a.replicates.mean(axis=0)) ** 2, axis=0)
    assert np.max(np.abs(a.mse - (a.bias**2 + variance))) <= 1e-10

    # resampling uniformity via an identity pipeline
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    tiny = AreaDataset(
        tuple("abcde"), y, np.ones(5), np.arange(5.0)[:, None], ("x",)
    )
    passed = 0
    for seed in range(20):
        rep = bootstrap_mse(
            tiny,
            np.zeros(5),
            per_replicate(lambda ys: ys),
            BootstrapConfig(n_replicates=10_000, seed=seed),
        )
        drawn = rep.replicates.ravel()
        counts = np.array([(drawn == v).sum() for v in y])
        if chisquare(counts).pvalue > 0.001:
            passed += 1
    assert passed >= 19


@criterion(9, "end-to-end run on the 51-area fixture: byte-stable, on budget, constraint met")
def test_criterion_9_end_to_end(tmp_path):
    start = time.perf_counter()
    target = 15.0
    names = ("estimates.csv", "cv_curve.csv", "bootstrap_mse.csv", "metadata.json")
    blobs = []
    for out in ("outA", "outB"):
        cfg = tmp_path / f"{out}.cfg"
        cfg.write_text(
            "\n".join(
                [
                    f"area_csv = {synthetic_dataset_path()}",
                    f"edge_list = {us_state_borders_path()}",
                    "covariate_columns = tax_poverty_rate,nonfiler_rate,foodstamp_rate",
                    "group_column = group",
                    "benchmark_weight_column = benchmark_weight",
                    f"benchmark_target = {target}",
                    "gamma_grid = 0.0001,100,40",
                    "gibbs_iterations = 4000",
                    "gibbs_burn = 1000",
                    "bootstrap_replicates = 200",
                    "bootstrap_gibbs_iterations = 1500",
                    "bootstrap_gibbs_burn = 400",
                    "seed = 11",
                    f"output_dir = {tmp_path / out}",
                ]
            )
            + "\n"
        )
        report = run_pipeline(RunConfig.from_file(cfg))
        assert report.m == 51
        assert report.metadata["constraint_residual"] <= 1e-8 * (1.0 + target)
        assert report.mse is not None and np.all(report.mse >= 0)
        assert report.cv is not None and report.cv.grid.shape == (40,)
        blobs.append({n: (tmp_path / out / n).read_bytes() for n in names})
    assert blobs[0] == blobs[1]
    assert time.perf_counter() - start < 300.0
