from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smallarea import (
    AreaDataset,
    GibbsConfig,
    NumericalError,
    PosteriorSummary,
    ValidationError,
    exact_means,
    gibbs_fit,
    posterior_mean,
)
from smallarea import fay_herriot
from smallarea.datasets import FIXTURE_SCHEMA, load_area_csv, synthetic_dataset_path

from oracles import (
    exact_posterior_mean,
    known_variance_posterior_mean,
    previous_gibbs_loop,
    reference_ess,
    reference_gibbs_draws,
    reference_gibbs_loop,
)


def make_dataset(seed, m=30, sigma_u2=2.0, beta=(5.0, 1.0)):
    rng = np.random.Generator(np.random.Philox(1000 + seed))
    x = rng.normal(0.0, 1.0, size=m)
    D = rng.uniform(0.5, 2.0, size=m)
    theta = beta[0] + beta[1] * x + np.sqrt(sigma_u2) * rng.standard_normal(m)
    y = theta + np.sqrt(D) * rng.standard_normal(m)
    data = AreaDataset(
        labels=tuple(f"a{i}" for i in range(m)),
        y=y,
        D=D,
        covariates=x[:, None],
        covariate_names=("x",),
        intercept=True,
    )
    return data, theta


class TestAreaDataset:
    def test_duplicate_label_rejected(self):
        with pytest.raises(ValidationError, match="duplicate label 'a'"):
            AreaDataset(("a", "a"), np.ones(2), np.ones(2), np.ones((2, 1)), ("x",))

    def test_negative_sampling_variance_rejected(self):
        with pytest.raises(ValidationError, match="negative sampling variance"):
            AreaDataset(("a", "b"), np.ones(2), np.array([1.0, -0.1]), np.ones((2, 1)), ("x",))

    def test_rank_deficient_covariates_rejected(self):
        cov = np.ones((4, 1))  # collinear with the intercept
        with pytest.raises(ValidationError, match="rank deficient"):
            AreaDataset(("a", "b", "c", "d"), np.ones(4), np.ones(4), cov, ("x",))

    def test_non_finite_response_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            AreaDataset(("a", "b"), np.array([1.0, np.inf]), np.ones(2), np.eye(2)[:, :1], ("x",))

    def test_group_length_mismatch(self):
        with pytest.raises(ValidationError, match="group labels"):
            AreaDataset(
                ("a", "b"), np.ones(2), np.ones(2), np.eye(2)[:, :1], ("x",), groups=("g",)
            )


class TestGibbsConfig:
    def test_burn_must_be_less_than_iterations(self):
        with pytest.raises(ValidationError, match="n_iter > n_burn"):
            GibbsConfig(n_iter=100, n_burn=100)

    def test_thin_must_be_positive(self):
        with pytest.raises(ValidationError, match="thin"):
            GibbsConfig(thin=0)

    def test_fixed_variance_must_be_positive(self):
        with pytest.raises(ValidationError, match="fixed_sigma_u2"):
            GibbsConfig(fixed_sigma_u2=0.0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("seed", 2.9, "seed must be an integer"),
            ("seed", True, "seed must be an integer"),
            ("seed", -1, "seed must be a nonnegative integer"),
            ("n_iter", 20.0, "n_iter must be an integer"),
            ("n_burn", np.float64(5.0), "n_burn must be an integer"),
            ("thin", 1.5, "thin must be an integer"),
        ],
    )
    def test_non_integer_field_or_negative_seed_rejected(self, field, value, message):
        with pytest.raises(ValidationError, match=message):
            GibbsConfig(**{"n_iter": 20, "n_burn": 5, field: value})

    def test_numpy_integers_accepted(self):
        config = GibbsConfig(n_iter=np.int64(20), n_burn=np.int32(5), thin=np.uint8(2), seed=np.uint32(7))
        assert (config.n_iter, config.n_burn, config.thin, config.seed) == (20, 5, 2, 7)
        assert type(config.seed) is int


class TestGibbsFit:
    def test_zero_sampling_variance_pins_theta_to_y(self):
        m = 8
        rng = np.random.default_rng(2)
        y = rng.normal(size=m)
        data = AreaDataset(
            tuple(f"a{i}" for i in range(m)),
            y,
            np.zeros(m),
            rng.normal(size=(m, 1)),
            ("x",),
        )
        fit = gibbs_fit(data, GibbsConfig(n_iter=200, n_burn=50, seed=1))
        assert np.array_equal(fit.theta_draws, np.tile(y, (fit.n_draws, 1)))
        np.testing.assert_allclose(fit.theta_bayes, y, rtol=1e-14, atol=0)

    def test_same_seed_bitwise_identical(self):
        data, _ = make_dataset(0)
        a = gibbs_fit(data, GibbsConfig(n_iter=500, n_burn=100, seed=42))
        b = gibbs_fit(data, GibbsConfig(n_iter=500, n_burn=100, seed=42))
        assert np.array_equal(a.theta_draws, b.theta_draws)
        assert np.array_equal(a.beta_draws, b.beta_draws)
        assert np.array_equal(a.sigma_u2_draws, b.sigma_u2_draws)

    def test_different_seeds_differ(self):
        data, _ = make_dataset(0)
        a = gibbs_fit(data, GibbsConfig(n_iter=500, n_burn=100, seed=1))
        b = gibbs_fit(data, GibbsConfig(n_iter=500, n_burn=100, seed=2))
        assert not np.array_equal(a.theta_draws, b.theta_draws)

    def test_too_few_areas_rejected(self):
        data = AreaDataset(
            ("a", "b", "c"),
            np.arange(3.0),
            np.ones(3),
            np.arange(3.0)[:, None],
            ("x",),
        )
        with pytest.raises(ValidationError, match="insufficient areas"):
            gibbs_fit(data, GibbsConfig(n_iter=100, n_burn=10))

    def test_overflowing_chain_is_a_numerical_error(self):
        # responses near 1e160 square past the largest float, so the draws
        # overflow, which is a numerical failure, not an invalid input
        m = 8
        y = np.random.default_rng(0).normal(size=m) * 1e160
        data = AreaDataset(tuple("abcdefgh"), y, np.ones(m), np.empty((m, 0)), ())
        with pytest.raises(NumericalError, match="draws overflowed"):
            gibbs_fit(data, GibbsConfig(n_iter=50, n_burn=10, seed=1))

    def test_zero_gamma_draw_is_the_variance_ceiling(self, monkeypatch):
        # at m = 4 the gamma shape is 1, and standard_gamma(1.0) returns an
        # exact 0.0 about once in 2^53 draws; no seed search reaches one, so
        # the chain's gamma stream (its second generator) is made to end in one
        m = 4
        y = np.random.default_rng(5).normal(size=m)
        data = AreaDataset(tuple("abcd"), y, np.ones(m), np.empty((m, 0)), ())
        config = GibbsConfig(n_iter=50, n_burn=10, seed=1)
        plain = gibbs_fit(data, config)
        made, real = [], np.random.Generator

        def zero_last(shape, n):  # the stream's first n - 1 draws, then 0.0
            return np.append(made[1].standard_gamma(shape, n - 1), 0.0)

        def generator(bits):
            made.append(real(bits))
            return SimpleNamespace(standard_gamma=zero_last) if len(made) == 2 else made[-1]

        monkeypatch.setattr(np.random, "Generator", generator)
        fit = gibbs_fit(data, config)
        assert len(made) == 2
        assert fit.sigma_u2_draws[-1] == np.finfo(float).max
        assert np.array_equal(fit.sigma_u2_draws[:-1], plain.sigma_u2_draws[:-1])
        assert np.array_equal(fit.theta_draws, plain.theta_draws)

    def test_known_variance_matches_conjugate_closed_form(self):
        # with the model variance fixed, the posterior mean has a closed
        # form; the chain must agree within Monte-Carlo error
        data, _ = make_dataset(0)
        sigma_u2 = 2.0
        fit = gibbs_fit(
            data, GibbsConfig(n_iter=20_000, n_burn=2_000, seed=0, fixed_sigma_u2=sigma_u2)
        )
        target = known_variance_posterior_mean(data.y, data.D, data.X, sigma_u2)
        mc_se = fit.theta_draws.std(axis=0, ddof=1) / np.sqrt(fit.ess)
        assert np.all(np.abs(fit.theta_bayes - target) <= 3.0 * mc_se)
        assert np.array_equal(fit.sigma_u2_draws, np.full(fit.n_draws, sigma_u2))

    def test_all_draws_finite_and_variance_positive(self):
        data, _ = make_dataset(3)
        fit = gibbs_fit(data, GibbsConfig(n_iter=2_000, n_burn=500, seed=3))
        assert np.all(np.isfinite(fit.theta_draws))
        assert np.all(np.isfinite(fit.beta_draws))
        assert np.all(fit.sigma_u2_draws > 0)

    def test_shrinkage_direction(self):
        # posterior means sit between the direct estimate and the
        # regression fit, up to 2 Monte-Carlo standard errors
        data, _ = make_dataset(0)
        fit = gibbs_fit(data, GibbsConfig(n_iter=5_000, n_burn=1_000, seed=0))
        reg = data.X @ fit.beta_mean
        lo = np.minimum(data.y, reg)
        hi = np.maximum(data.y, reg)
        mc_se = fit.theta_draws.std(axis=0, ddof=1) / np.sqrt(fit.ess)
        assert np.all(fit.theta_bayes >= lo - 2.0 * mc_se)
        assert np.all(fit.theta_bayes <= hi + 2.0 * mc_se)

    def test_beta_recovery_on_synthetic_data(self):
        beta_true = np.array([2.0, 1.0, -0.5])
        rng = np.random.Generator(np.random.Philox(77))
        m = 200
        X = np.column_stack([rng.normal(size=m), rng.normal(size=m)])
        D = rng.uniform(0.5, 2.0, size=m)
        theta = 2.0 + X @ beta_true[1:] + rng.standard_normal(m)
        y = theta + np.sqrt(D) * rng.standard_normal(m)
        data = AreaDataset(tuple(f"a{i}" for i in range(m)), y, D, X, ("x1", "x2"))
        fit = gibbs_fit(data, GibbsConfig(n_iter=3_000, n_burn=1_000, seed=5))
        sd = fit.beta_draws.std(axis=0, ddof=1)
        assert np.all(np.abs(fit.beta_mean - beta_true) <= 4.0 * sd)


def _with_zero_variances(data):
    D = data.D.copy()
    D[[0, 7, 19]] = 0.0
    return replace(data, D=D)


class TestReferenceChain:
    """gibbs_fit against the per-step triangular-solve chain in oracles."""

    @pytest.mark.parametrize(
        "dataset, config",
        [
            pytest.param(
                lambda: load_area_csv(synthetic_dataset_path(), FIXTURE_SCHEMA),
                GibbsConfig(n_iter=600, n_burn=100, seed=4),
                id="bundled-fixture",
            ),
            pytest.param(
                lambda: _with_zero_variances(make_dataset(1)[0]),
                GibbsConfig(n_iter=400, n_burn=50, seed=5),
                id="zero-sampling-variance",
            ),
            pytest.param(
                lambda: make_dataset(2)[0],
                GibbsConfig(n_iter=400, n_burn=50, seed=6, fixed_sigma_u2=1.5),
                id="fixed-variance",
            ),
            pytest.param(
                lambda: make_dataset(3)[0],
                GibbsConfig(n_iter=400, n_burn=50, thin=3, seed=7),
                id="thin-3",
            ),
            pytest.param(
                lambda: replace(make_dataset(4)[0], intercept=False),
                GibbsConfig(n_iter=400, n_burn=50, seed=8),
                id="no-intercept",
            ),
            # m + p = 32, so one chain fills 2048 iterations per block: 2048 + 452
            pytest.param(
                lambda: make_dataset(5)[0],
                GibbsConfig(n_iter=2500, n_burn=100, seed=9),
                id="two-blocks",
            ),
        ],
    )
    def test_draws_match_reference(self, dataset, config):
        data = dataset()
        fit = gibbs_fit(data, config)
        theta, beta, sigma2 = reference_gibbs_draws(data, config)
        assert fit.theta_draws.shape == theta.shape
        # relative to each column's largest draw: a coefficient draw near
        # zero carries the rounding of the terms that cancel in it
        for got, want in ((fit.theta_draws, theta), (fit.beta_draws, beta), (fit.sigma_u2_draws, sigma2)):
            assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want).max(axis=0))
        pinned = data.D == 0
        assert np.array_equal(fit.theta_draws[:, pinned], np.tile(data.y[pinned], (fit.n_draws, 1)))


class TestLockStep:
    """gibbs_fit's stream for any responses and seed, and the input checks
    and memory bound of exact_means, the batched Bayes step."""

    CASES = {
        "bundled-fixture": (
            lambda: load_area_csv(synthetic_dataset_path(), FIXTURE_SCHEMA),
            GibbsConfig(n_iter=600, n_burn=100),
        ),
        "zero-sampling-variance": (
            lambda: _with_zero_variances(make_dataset(1)[0]),
            GibbsConfig(n_iter=400, n_burn=50),
        ),
        "every-area-pinned": (
            lambda: replace(make_dataset(5)[0], D=np.zeros(30)),
            GibbsConfig(n_iter=400, n_burn=50),
        ),
        "fixed-variance": (lambda: make_dataset(2)[0], GibbsConfig(n_iter=400, n_burn=50, fixed_sigma_u2=1.5)),
        "thin-3": (lambda: make_dataset(3)[0], GibbsConfig(n_iter=400, n_burn=50, thin=3)),
        "no-intercept": (
            lambda: replace(make_dataset(4)[0], intercept=False),
            GibbsConfig(n_iter=400, n_burn=50),
        ),
        # with 512 iterations per block (set in the test): 512 + 512 + 276
        "three-blocks": (lambda: make_dataset(6)[0], GibbsConfig(n_iter=1300, n_burn=50)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_rows_match_reference_chains(self, monkeypatch, case):
        dataset, config = self.CASES[case]
        if case == "three-blocks":
            monkeypatch.setattr(fay_herriot, "_BLOCK_DRAWS", 512 * 32)  # m + p = 32
        data = dataset()
        rng = np.random.default_rng(31)
        Y = data.y + rng.normal(0.0, 1.0, size=(4, data.m))
        pinned = data.D == 0
        for b, seed in enumerate([5, 17, 2**32 - 1, 40]):
            row, row_config = replace(data, y=Y[b]), replace(config, seed=seed)
            fit = gibbs_fit(row, row_config)
            draws, _, _ = reference_gibbs_draws(row, row_config)
            scale = np.abs(draws).max(axis=0)
            assert np.all(np.abs(fit.theta_bayes - draws.mean(axis=0)) <= 1e-10 * scale), b
            np.testing.assert_allclose(fit.theta_bayes[pinned], Y[b, pinned], rtol=1e-13, atol=0)

    # block sizes in normals (m + p = 32 for make_dataset): 512 iterations, and one
    BITWISE_BLOCKS = {"three-blocks": 512 * 32, "one-iteration-blocks": 32}

    def _rows(self, monkeypatch, case, seeds):
        """(row dataset, row config) of ``case`` for each seed, with the
        case's block size patched in."""
        dataset, config = self.CASES.get(case) or (lambda: make_dataset(9)[0], GibbsConfig(n_iter=90, n_burn=10))
        if case in self.BITWISE_BLOCKS:
            monkeypatch.setattr(fay_herriot, "_BLOCK_DRAWS", self.BITWISE_BLOCKS[case])
        data = dataset()
        Y = data.y + np.random.default_rng(37).normal(0.0, 1.0, size=(len(seeds), data.m))
        return [(replace(data, y=Y[b]), replace(config, seed=seed)) for b, seed in enumerate(seeds)]

    @pytest.mark.parametrize("case", [*CASES, "one-iteration-blocks"])
    def test_draws_match_the_unbuffered_loop_bitwise(self, monkeypatch, case):
        """The blocked, buffered loop makes the same operations in the same
        order as a plain loop that allocates fresh arrays and draws one
        iteration at a time, so every retained draw is bit for bit equal."""
        for row, row_config in self._rows(monkeypatch, case, [5, 2**32 - 1, 40]):
            fit = gibbs_fit(row, row_config)
            want = reference_gibbs_loop(row, row_config)
            got = (fit.theta_draws, fit.beta_draws, fit.sigma_u2_draws)
            for name, g, w in zip(("theta", "beta", "sigma2"), got, want, strict=True):
                assert np.array_equal(g, w), (row_config.seed, name)

    @pytest.mark.parametrize("case", [*CASES, "one-iteration-blocks"])
    def test_draws_stay_within_roundoff_of_the_previous_loop(self, monkeypatch, case):
        """The fused step (one fit per iteration, beta's noise summed
        elementwise, the sum of squares as a dot product) moves the draws of
        the loop it replaced by roundoff only, relative to each column's
        largest draw."""
        for row, row_config in self._rows(monkeypatch, case, [5, 2**32 - 1, 40]):
            fit = gibbs_fit(row, row_config)
            want = previous_gibbs_loop(row, row_config)
            got = (fit.theta_draws, fit.beta_draws, fit.sigma_u2_draws)
            for name, g, w in zip(("theta", "beta", "sigma2"), got, want, strict=True):
                assert np.all(np.abs(g - w) <= 1e-12 * np.abs(w).max(axis=0)), (row_config.seed, name)

    def test_one_iteration_blocks(self, monkeypatch):
        # m + p exceeds the block, so the chain draws one iteration per call
        data, _ = make_dataset(6, m=400)
        monkeypatch.setattr(fay_herriot, "_BLOCK_DRAWS", data.m)
        config = GibbsConfig(n_iter=30, n_burn=5, seed=300)
        draws, _, _ = reference_gibbs_draws(data, config)
        got = gibbs_fit(data, config).theta_draws
        assert np.all(np.abs(got - draws) <= 1e-10 * np.abs(draws).max(axis=0))

    @pytest.mark.parametrize(
        "fixed_sigma_u2, pinned",
        [(None, False), (1.5, False), (None, True), (1.5, True)],
        ids=["sampled", "fixed", "sampled-pinned", "fixed-pinned"],
    )
    def test_block_size_is_not_part_of_the_stream(self, monkeypatch, fixed_sigma_u2, pinned):
        data, _ = make_dataset(7)
        if pinned:
            # three areas at D = 0, whose theta values are computed with the
            # rest and then reset to y; and p = 4, where the rows of a GEMM
            # over a block are not all what one row's product gives
            x = data.covariates[:, 0]
            wide = np.column_stack([x, x**2, np.sin(x)])
            data = _with_zero_variances(replace(data, covariates=wide, covariate_names=("x", "x2", "sin_x")))
        config = GibbsConfig(n_iter=300, n_burn=20, seed=2, fixed_sigma_u2=fixed_sigma_u2)
        default = gibbs_fit(data, config)
        width = data.m + data.X.shape[1]
        for block in (1, 7 * width):  # K = 1, and K = 7, which does not divide 300
            monkeypatch.setattr(fay_herriot, "_BLOCK_DRAWS", block)
            fit = gibbs_fit(data, config)
            for name in ("theta_draws", "beta_draws", "sigma_u2_draws"):
                assert np.array_equal(getattr(fit, name), getattr(default, name)), (block, name)

    @pytest.mark.parametrize("pinned", [False, True], ids=["observed", "pinned"])
    @pytest.mark.parametrize("fixed_sigma_u2", [None, 1.5], ids=["sampled", "fixed"])
    @pytest.mark.parametrize("thin", [1, 3], ids=["thin-1", "thin-3"])
    @pytest.mark.parametrize("length", ["within-a-block", "several-blocks"])
    @pytest.mark.parametrize("block", ["one-iteration", "seven-iterations", "default"])
    def test_theta_sum_gives_the_draws_mean_bitwise(self, monkeypatch, block, length, thin, fixed_sigma_u2, pinned):
        """Without its theta draws the chain adds each block's retained
        thetas to a running sum in one reduction per block, which adds them
        in the order the draws' mean does: theta_bayes is bit for bit the
        same, and so are the beta and model-variance draws."""
        data, _ = make_dataset(7)
        if pinned:
            data = _with_zero_variances(data)
        width = data.m + data.X.shape[1]
        size = {"one-iteration": 1, "seven-iterations": 7 * width, "default": fay_herriot._BLOCK_DRAWS}[block]
        monkeypatch.setattr(fay_herriot, "_BLOCK_DRAWS", size)
        K = max(1, size // width)
        # a chain of 6 iterations fits in one block (K = 1 aside) and keeps
        # fewer draws than it holds; a chain of 3K + 5 spans four blocks,
        # and its burn-in ends inside the first
        n_iter, n_burn = (6, 2) if length == "within-a-block" else (3 * K + 5, K // 2 + 1)
        config = GibbsConfig(n_iter=n_iter, n_burn=n_burn, thin=thin, seed=2, fixed_sigma_u2=fixed_sigma_u2)
        kept = gibbs_fit(data, config)
        summed = gibbs_fit(data, config, keep_theta_draws=False)
        assert summed.theta_draws is None and summed.ess is None
        assert summed.n_draws == kept.n_draws == len(range(n_burn, n_iter, thin))
        assert np.array_equal(summed.theta_bayes, kept.theta_bayes)
        assert np.array_equal(summed.beta_draws, kept.beta_draws)
        assert np.array_equal(summed.sigma_u2_draws, kept.sigma_u2_draws)

    @pytest.mark.parametrize("pinned", [False, True], ids=["observed", "pinned"])
    @pytest.mark.parametrize("fixed_sigma_u2", [None, 1.5], ids=["sampled", "fixed"])
    def test_burn_in_spanning_whole_blocks(self, monkeypatch, fixed_sigma_u2, pinned):
        """With K = 7 iterations per block, a burn-in of 2K + 3 and thin = 3,
        the first two blocks retain no row, the next four first retain the
        rows 3, 2, 1 and 0 past their start, and the last, two iterations
        long, retains none.  The kept draws are bit for bit the plain
        loop's, and the summed theta_bayes is bit for bit their mean."""
        data, _ = make_dataset(7)
        if pinned:
            data = _with_zero_variances(data)
        K = 7  # not a multiple of thin
        monkeypatch.setattr(fay_herriot, "_BLOCK_DRAWS", K * (data.m + data.X.shape[1]))
        config = GibbsConfig(n_iter=6 * K + 2, n_burn=2 * K + 3, thin=3, seed=2, fixed_sigma_u2=fixed_sigma_u2)
        kept = gibbs_fit(data, config)
        summed = gibbs_fit(data, config, keep_theta_draws=False)
        got = (kept.theta_draws, kept.beta_draws, kept.sigma_u2_draws)
        for name, g, w in zip(("theta", "beta", "sigma2"), got, reference_gibbs_loop(data, config), strict=True):
            assert np.array_equal(g, w), name
        assert np.array_equal(summed.theta_bayes, kept.theta_draws.mean(axis=0))
        assert np.array_equal(summed.beta_draws, kept.beta_draws)
        assert np.array_equal(summed.sigma_u2_draws, kept.sigma_u2_draws)

    def test_fixed_variance_stream_is_per_iteration_normals(self):
        """With the variance fixed the chain draws only normals, one
        standard_normal(m + p) per iteration: the stream of a plain loop."""
        data, _ = make_dataset(8)
        config = GibbsConfig(n_iter=2500, n_burn=100, seed=12, fixed_sigma_u2=0.8)
        X, y, D = data.X, data.y, data.D
        m, p = X.shape
        rng = np.random.Generator(np.random.Philox(config.seed))
        xtx = X.T @ X
        Pt = np.linalg.solve(xtx, X.T).T
        Rt = np.linalg.inv(np.linalg.cholesky(xtx))
        Xt = np.ascontiguousarray(X.T)
        sigma2 = config.fixed_sigma_u2
        beta = y @ Pt
        thetas = []
        for it in range(config.n_iter):
            z = rng.standard_normal(m + p)
            prec = 1.0 / D + 1.0 / sigma2
            theta = (y / D + (beta @ Xt) / sigma2) / prec + z[:m] / np.sqrt(prec)
            beta = theta @ Pt + np.sqrt(sigma2) * (z[m:, None] * Rt).sum(axis=0)
            if it >= config.n_burn:
                thetas.append(theta)
        assert np.array_equal(gibbs_fit(data, config).theta_draws, np.array(thetas))

    def test_zero_residuals_floor_the_variance_without_warning(self):
        # y = 2^60 on an intercept-only design with D = 0: theta is pinned to
        # y, and beta's noise is below the rounding of 2^60, so every
        # residual sum of squares is exactly 0 (warnings are errors here)
        m = 8
        data = AreaDataset(tuple("abcdefgh"), np.full(m, 2.0**60), np.zeros(m), np.empty((m, 0)), ())
        config = GibbsConfig(n_iter=50, n_burn=10, seed=3)
        fit = gibbs_fit(data, config)
        assert np.all(fit.beta_draws == 2.0**60)
        assert np.all(fit.sigma_u2_draws == 1e-12)
        # with every D = 0, theta = y at every variance
        assert np.all(exact_means(data, np.tile(data.y, (3, 1))) == 2.0**60)

    def test_keeps_no_draws(self):
        import tracemalloc

        data, _ = make_dataset(5, m=200)
        Y = np.tile(data.y, (50, 1))
        tracemalloc.start()
        try:
            exact_means(data, Y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # unchunked, the fine lattice's (nodes x m) weights would take
        # 200 x 200 x 8 bytes = 320 KB and its (nodes x (p + 1) x rows)
        # terms 200 x 3 x 50 x 8 bytes = 240 KB each; chunked ones take 256 KiB
        assert peak < 2_000_000

    @pytest.mark.parametrize(
        "Y, message",
        [
            pytest.param(np.zeros((2, 29)), r"shape \(2, 29\), expected \(B, 30\)", id="columns"),
            pytest.param(np.zeros(30), r"responses must be two-dimensional, got shape \(30,\)", id="one-dimensional"),
            pytest.param(np.full((1, 30), np.nan), "responses contains non-finite", id="non-finite"),
            pytest.param(np.zeros((0, 30)), r"expected \(B, 30\) with B >= 1", id="empty-batch"),
            pytest.param([["a"] * 30], "responses must be a matrix of real numbers", id="text"),
        ],
    )
    def test_bad_responses_rejected(self, Y, message):
        data, _ = make_dataset(0)
        with pytest.raises(ValidationError, match=message):
            exact_means(data, Y)

    def test_propriety_guard(self):
        data = AreaDataset(
            tuple("abcd"), np.arange(4.0), np.ones(4), np.array([[0.0], [1.0], [3.0], [2.0]]), ("x",)
        )
        with pytest.raises(ValidationError, match="propriety"):
            exact_means(data, data.y[None, :])
        with pytest.raises(ValidationError, match="propriety"):
            gibbs_fit(data, GibbsConfig(n_iter=20, n_burn=5))

    @pytest.mark.parametrize(
        "seed, message",
        [
            pytest.param(1.7, "seed must be an integer", id="fractional"),
            pytest.param(np.float64(2.0), "seed must be an integer", id="numpy-float"),
            pytest.param(True, "seed must be an integer", id="bool"),
            pytest.param(-3, "seed must be a nonnegative integer", id="negative"),
        ],
    )
    def test_bad_seeds_rejected(self, seed, message):
        data, _ = make_dataset(0)
        with pytest.raises(ValidationError, match=message):
            gibbs_fit(data, GibbsConfig(n_iter=20, n_burn=5, seed=seed))

    def test_numpy_integer_seeds_accepted(self):
        data, _ = make_dataset(0)
        as_numpy = gibbs_fit(data, GibbsConfig(n_iter=20, n_burn=5, seed=np.uint32(4)))
        plain = gibbs_fit(data, GibbsConfig(n_iter=20, n_burn=5, seed=4))
        assert np.array_equal(as_numpy.theta_draws, plain.theta_draws)


def _oracle_case(seed):
    """A random problem for the exact-mean cross-check: m from p + 3 to 60,
    D over four decades with up to a quarter of the areas at D = 0, and
    B <= 5 response rows around a random regression."""
    rng = np.random.default_rng(seed)
    q = int(rng.integers(0, 3))
    intercept = q == 0 or bool(rng.integers(0, 2))
    p = q + intercept
    m = int(rng.integers(p + 3, 61))
    D = 10.0 ** rng.uniform(-2.0, 2.0, m)
    D[rng.choice(m, int(rng.integers(0, m // 4 + 1)), replace=False)] = 0.0
    cov = rng.normal(size=(m, q))
    X = np.column_stack([np.ones(m), cov]) if intercept else cov
    sigma_u2 = 10.0 ** rng.uniform(-2.0, 2.0)
    B = int(rng.integers(1, 6))
    Y = X @ rng.normal(0.0, 3.0, p) + rng.normal(0.0, np.sqrt(sigma_u2), (B, m)) + np.sqrt(D) * rng.normal(size=(B, m))
    data = AreaDataset(tuple(f"a{i}" for i in range(m)), Y[0], D, cov, tuple(f"x{j}" for j in range(q)), intercept)
    return data, Y


class TestExactMeans:
    """exact_means against the quad oracle, and the chain against both."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_oracle(self, seed):
        data, Y = _oracle_case(seed)
        got = exact_means(data, Y)
        for b, y in enumerate(Y):
            want = exact_posterior_mean(y, data.D, data.X)
            assert np.max(np.abs(got[b] - want)) <= 1e-9 * (1.0 + np.abs(y).max()), b

    def test_zero_sampling_variance_returns_y_exactly(self):
        data = _with_zero_variances(make_dataset(1)[0])
        Y = data.y + np.random.default_rng(3).normal(size=(3, data.m))
        pinned = data.D == 0
        assert np.array_equal(exact_means(data, Y)[:, pinned], Y[:, pinned])

    def test_fixed_variance_is_the_conditional_mean(self):
        data, _ = make_dataset(2)
        got = exact_means(data, data.y[None, :], fixed_sigma_u2=1.5)[0]
        np.testing.assert_allclose(got, known_variance_posterior_mean(data.y, data.D, data.X, 1.5), rtol=1e-12, atol=0)

    def test_improper_row_is_nan_not_truncated(self):
        # five D = 0 areas on the intercept with equal y: p(s2 | y) grows like
        # s2^{-2} dt as s2 -> 0, so the window reaches the range's lower end
        D = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        y = np.array([2.0, 2.0, 2.0, 2.0, 2.0, 1.0, 3.0, 4.0])
        data = AreaDataset(tuple("abcdefgh"), y, D, np.empty((8, 0)), ())
        got = exact_means(data, np.vstack([y, y + np.arange(8.0)]))
        assert np.all(np.isnan(got[0]))
        assert np.all(np.isfinite(got[1]))

    def test_rows_of_different_scales_match_oracle(self):
        """Rows at 1x, 10x and 100x the residual scale around one regression
        share a lattice spaced for the narrowest window; the bound was fixed
        before the first run."""
        data, _ = make_dataset(9)
        rng = np.random.default_rng(41)
        fit = data.X @ np.array([1.0, 2.0, -1.0])[: data.X.shape[1]]
        Y = fit + np.array([1.0, 10.0, 100.0, 10.0, 1.0])[:, None] * rng.normal(size=(5, data.m))
        got = exact_means(data, Y)
        for b, y in enumerate(Y):
            want = exact_posterior_mean(y, data.D, data.X)
            assert np.max(np.abs(got[b] - want)) <= 1e-9 * (1.0 + np.abs(y).max()), b

    def test_chunk_size_is_not_part_of_the_result(self, monkeypatch):
        # 3m doubles hold less than one row's (p + 1) x max(m, nodes) terms,
        # so every chunk is one row, evaluated on its own window's nodes only
        data, _ = make_dataset(9)
        rng = np.random.default_rng(42)
        Y = data.y + np.array([0.1, 1.0, 100.0])[:, None] * rng.normal(size=(3, data.m))
        default = exact_means(data, Y)
        monkeypatch.setattr(fay_herriot, "_CHUNK_DOUBLES", 3 * data.m)
        np.testing.assert_allclose(exact_means(data, Y), default, rtol=1e-12, atol=0)

    def test_nodes_without_a_factor_make_their_rows_nan(self, monkeypatch):
        data, _ = make_dataset(9)
        Y = data.y + np.random.default_rng(43).normal(size=(2, data.m))
        default = exact_means(data, Y)
        cholesky = np.linalg.cholesky

        def stack_fails(a):  # so each node is factored alone, and each has a factor
            if np.ndim(a) == 3:
                raise np.linalg.LinAlgError("not positive definite")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", stack_fails)
        assert np.array_equal(exact_means(data, Y), default)

        def every_node_fails(a):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", every_node_fails)
        assert np.all(np.isnan(exact_means(data, Y)))
        assert np.all(np.isnan(exact_means(data, Y, fixed_sigma_u2=1.5)))

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_batch_rows_match_rows_alone(self, seed):
        """A row's value depends on its batch only through the lattice
        spacing; the bound was fixed before the first run."""
        data, Y = _oracle_case(seed)
        got = exact_means(data, Y)
        for b, y in enumerate(Y):
            alone = exact_means(data, Y[b : b + 1])[0]
            assert np.max(np.abs(got[b] - alone)) <= 1e-11 * (1.0 + np.abs(y).max()), b

    def test_improper_row_beside_finite_rows(self):
        # the improper row of test_improper_row_is_nan_not_truncated shares
        # the lattice with finite rows, which must still match the oracle
        D = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        y = np.array([2.0, 2.0, 2.0, 2.0, 2.0, 1.0, 3.0, 4.0])
        data = AreaDataset(tuple("abcdefgh"), y, D, np.empty((8, 0)), ())
        Y = np.vstack([y + np.arange(8.0), y, y + np.arange(8.0) ** 2, y - 5.0 * np.arange(8.0)])
        got = exact_means(data, Y)
        assert np.all(np.isnan(got[1]))
        for b in (0, 2, 3):
            want = exact_posterior_mean(Y[b], D, data.X)
            assert np.max(np.abs(got[b] - want)) <= 1e-9 * (1.0 + np.abs(Y[b]).max()), b

    def test_factors_each_node_once_for_the_batch(self, monkeypatch):
        """200 bootstrap-like rows on the fixture, y* = theta + sqrt(D) z
        around the exact mean theta, factor X'V^{-1}X at each node of the
        shared lattice once: a few hundred matrices, where one factorization
        per (row, node) would be 200 x 248 = 49,600."""
        data = load_area_csv(synthetic_dataset_path(), FIXTURE_SCHEMA)
        theta = exact_means(data, data.y[None, :])[0]
        Y = theta + np.sqrt(data.D) * np.random.default_rng(5).normal(size=(200, data.m))
        factored = []
        cholesky = np.linalg.cholesky

        def counting(a):
            factored.append(int(np.prod(np.shape(a)[:-2])))
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        assert np.all(np.isfinite(exact_means(data, Y)))
        assert sum(factored) < 1_000

    @staticmethod
    def _mixed_widths(data, rows, seed):
        """Rows y + s z, z ~ N(0, D + 1), with s in {1, 3, 10, 30} in a
        shuffled order: their windows in log s2 differ much in width and
        place, so the shared fine lattice is spaced for the narrowest."""
        rng = np.random.default_rng(seed)
        s = rng.permutation(np.repeat([1.0, 3.0, 10.0, 30.0], rows // 4))
        return data.y + s[:, None] * np.sqrt(data.D + 1.0) * rng.normal(size=(len(s), data.m))

    def test_row_order_is_not_part_of_the_result(self, monkeypatch):
        """Permuting the rows permutes the means: rows are sorted by window
        before they are chunked, and a row's nodes outside its window carry
        zero weight, so only the rounding of a chunk's sums may differ.
        Chunks of about 3 rows (a shrunk _CHUNK_DOUBLES) get different node
        ranges; the bound was fixed before the first run."""
        data = load_area_csv(synthetic_dataset_path(), FIXTURE_SCHEMA)
        Y = self._mixed_widths(data, 60, 6)
        monkeypatch.setattr(fay_herriot, "_CHUNK_DOUBLES", 2**14)
        spans = set()
        row_terms = fay_herriot._row_terms

        def recording(X, Y, w, inv, const):
            spans.add(len(const))
            return row_terms(X, Y, w, inv, const)

        monkeypatch.setattr(fay_herriot, "_row_terms", recording)
        default = exact_means(data, Y)
        order = np.random.default_rng(7).permutation(len(Y))
        permuted = exact_means(data, Y[order])
        assert len(spans) > 2
        assert np.all(np.isfinite(default))
        scale = 1.0 + np.abs(Y[order]).max(axis=1, keepdims=True)
        assert np.all(np.abs(permuted - default[order]) <= 1e-14 * scale)

    def test_rows_of_mixed_widths_read_the_nodes_near_their_windows(self, monkeypatch):
        """200 shuffled rows of mixed window widths on the fixture: sorted by
        window and chunked, each row is evaluated on fewer than 500 nodes of
        the coarse and fine lattices together (379 now); evaluating every row
        on every fine node of the union cost 955."""
        data = load_area_csv(synthetic_dataset_path(), FIXTURE_SCHEMA)
        Y = self._mixed_widths(data, 200, 5)
        terms = []
        row_terms = fay_herriot._row_terms

        def counting(X, Y, w, inv, const):
            terms.append(len(Y) * len(const))
            return row_terms(X, Y, w, inv, const)

        monkeypatch.setattr(fay_herriot, "_row_terms", counting)
        assert np.all(np.isfinite(exact_means(data, Y)))
        assert sum(terms) / len(Y) < 500

    def test_gibbs_fit_is_unbiased_against_the_exact_mean(self):
        """z = (chain mean - exact mean) / MCSE per area, pooled over five
        fixed seeds of 20000/2000 iterations on the fixture.  The bounds were
        fixed before the first run: |mean z| <= 0.5 and sd(z) in [0.5, 1.5]."""
        data = load_area_csv(synthetic_dataset_path(), FIXTURE_SCHEMA)
        exact = exact_posterior_mean(data.y, data.D, data.X)
        z = []
        for seed in range(5):
            fit = gibbs_fit(data, GibbsConfig(n_iter=20_000, n_burn=2_000, seed=seed))
            mcse = fit.theta_draws.std(axis=0, ddof=1) / np.sqrt(fit.ess)
            z.append((fit.theta_bayes - exact) / mcse)
        z = np.concatenate(z)
        assert abs(z.mean()) <= 0.5
        assert 0.5 <= z.std(ddof=1) <= 1.5


class TestEffectiveSampleSize:
    """PosteriorSummary.ess against the per-area loop in oracles."""

    @staticmethod
    def _summary(draws):
        n = draws.shape[0]
        return PosteriorSummary(theta_draws=draws, beta_draws=np.zeros((n, 1)), sigma_u2_draws=np.ones(n))

    @staticmethod
    def _ar1(rng, n, phi):
        x = np.empty((n, len(phi)))
        x[0] = rng.standard_normal(len(phi))
        for t in range(1, n):
            x[t] = phi * x[t - 1] + rng.standard_normal(len(phi))
        return x

    @pytest.mark.parametrize(
        "draws",
        [
            # 600 columns of 500 draws take three FFT blocks
            pytest.param(
                lambda rng: TestEffectiveSampleSize._ar1(rng, 500, rng.uniform(-0.5, 0.95, 600)),
                id="ar1",
            ),
            pytest.param(lambda rng: np.full((64, 2), 3.0), id="constant"),
            pytest.param(lambda rng: rng.standard_normal((3, 4)), id="n-below-4"),
        ],
    )
    def test_matches_reference(self, draws):
        x = draws(np.random.default_rng(21))
        ess = self._summary(x).ess
        np.testing.assert_allclose(ess, reference_ess(x), rtol=1e-12, atol=0)

    def test_anti_correlated_column_whose_first_pair_is_not_positive(self):
        x = self._ar1(np.random.default_rng(21), 300, np.array([-0.9]))
        xc = x[:, 0] - x[:, 0].mean()
        acov = [xc[: len(xc) - k] @ xc[k:] for k in range(3)]
        assert acov[1] + acov[2] <= 0
        assert self._summary(x).ess[0] == 300.0
        np.testing.assert_allclose(self._summary(x).ess, reference_ess(x), rtol=1e-12, atol=0)

    def test_constant_column_is_n_whatever_its_mean_rounds_to(self):
        # the float mean of 0.1 repeated 1000 times is not 0.1, so the
        # centred column is a nonzero constant; its ESS is still n
        x = np.column_stack([np.full(1000, 0.1), np.arange(1000.0) % 7])
        assert x[:, 0].mean() != 0.1
        assert self._summary(x).ess[0] == 1000.0

    def test_none_without_the_draws(self):
        summary = PosteriorSummary(None, np.zeros((4, 1)), np.ones(4), theta_sum=np.array([2.0, -0.0]))
        assert summary.ess is None
        assert np.array_equal(summary.theta_bayes, [0.5, -0.0])
        for theta in ({"theta_draws": None}, {"theta_draws": np.ones((4, 2)), "theta_sum": np.ones(2)}):
            with pytest.raises(ValidationError, match="exactly one of theta_draws and theta_sum"):
                PosteriorSummary(**theta, beta_draws=np.zeros((4, 1)), sigma_u2_draws=np.ones(4))

    def test_computed_when_first_read(self):
        data, _ = make_dataset(0)
        fit = gibbs_fit(data, GibbsConfig(n_iter=300, n_burn=50, seed=1))
        assert "ess" not in vars(fit)
        assert fit.ess is fit.ess
        np.testing.assert_allclose(fit.ess, reference_ess(fit.theta_draws), rtol=1e-12, atol=0)


class TestPosteriorMean:
    def test_single_draw(self):
        draws = np.array([[1.0, 2.0, 3.0]])
        assert np.array_equal(posterior_mean(draws), draws[0])

    def test_two_draws(self):
        draws = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert np.array_equal(posterior_mean(draws), np.array([1.0, 1.0]))

    def test_matches_streaming_recomputation(self):
        rng = np.random.default_rng(11)
        draws = rng.normal(size=(10_000, 4))
        fast = posterior_mean(draws)
        running = np.zeros(4)
        for k, row in enumerate(draws, start=1):
            running += (row - running) / k
        np.testing.assert_allclose(fast, running, rtol=0, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="at least one"):
            posterior_mean(np.empty((0, 3)))

    @pytest.mark.parametrize(
        "draws, message",
        [
            pytest.param([["a", "b"]], "theta_draws must be a matrix of real numbers", id="text"),
            pytest.param([[1.0, np.nan]], "theta_draws contains non-finite entries", id="non-finite"),
            pytest.param([[True, False]], "theta_draws must be a matrix of real numbers", id="bool"),
        ],
    )
    def test_bad_draws_rejected(self, draws, message):
        with pytest.raises(ValidationError, match=message):
            posterior_mean(draws)
