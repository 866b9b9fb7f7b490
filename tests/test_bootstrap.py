import numpy as np
import pytest

from smallarea import (
    AreaDataset,
    BootstrapConfig,
    BootstrapReport,
    NumericalError,
    ValidationError,
    bootstrap_mse,
    replicate_rng,
    smoothed_estimate,
    standardized_residuals,
)

from oracles import per_replicate, random_connected_instance


def make_dataset(rng, m=10):
    y = rng.normal(10.0, 2.0, size=m)
    D = rng.uniform(0.5, 2.0, size=m)
    x = rng.normal(size=m)
    return AreaDataset(
        labels=tuple(f"a{i}" for i in range(m)),
        y=y,
        D=D,
        covariates=x[:, None],
        covariate_names=("x",),
    )


def smoothing_pipeline(omega, phi, gamma):
    """A cheap full-inference stand-in: smooth the synthetic responses."""

    def run(y_star):
        return smoothed_estimate(y_star, phi, omega, gamma).values

    return run


class TestStandardizedResiduals:
    def test_zero_residuals(self):
        y = np.array([1.0, 2.0])
        assert np.array_equal(standardized_residuals(y, y, np.ones(2)), np.zeros(2))

    def test_unit_scale_returns_raw_residuals(self):
        y = np.array([2.0, 5.0])
        fit = np.array([1.0, 3.0])
        assert np.array_equal(standardized_residuals(y, fit, np.ones(2)), y - fit)

    def test_direct_arithmetic(self):
        got = standardized_residuals(
            np.array([2.0, 5.0]), np.array([1.0, 3.0]), np.array([1.0, 2.0])
        )
        assert np.array_equal(got, np.array([1.0, 1.0]))

    def test_zero_scale_rejected(self):
        with pytest.raises(ValidationError, match="residual scale undefined"):
            standardized_residuals(np.ones(2), np.ones(2), np.array([1.0, 0.0]))


class TestBootstrapMse:
    def test_single_replicate_is_exact_square(self):
        rng = np.random.default_rng(1)
        data = make_dataset(rng)
        theta_bm = data.y + rng.normal(0.0, 0.3, size=data.m)
        _, phi, omega = random_connected_instance(rng, data.m)
        pipe = smoothing_pipeline(omega, phi, 0.5)
        config = BootstrapConfig(n_replicates=1, seed=3)
        report = bootstrap_mse(data, theta_bm, per_replicate(pipe), config)
        np.testing.assert_allclose(
            report.mse, (report.replicates[0] - theta_bm) ** 2, rtol=0, atol=0
        )

    def test_zero_residuals_give_identical_replicates_and_no_bias(self):
        rng = np.random.default_rng(2)
        data = make_dataset(rng)
        theta_bm = data.y.copy()  # residuals vanish
        _, phi, omega = random_connected_instance(rng, data.m)
        pipe = smoothing_pipeline(omega, phi, 0.4)
        report = bootstrap_mse(data, theta_bm, per_replicate(pipe), BootstrapConfig(n_replicates=5, seed=0))
        assert np.all(report.replicates == report.replicates[0])
        fixed_point = pipe(data.y)
        np.testing.assert_allclose(report.bias, fixed_point - theta_bm, atol=1e-12)

    def test_matches_independent_reimplementation(self):
        # second driver over the same pipeline closure, rebuilding the
        # documented RNG streams from scratch
        rng = np.random.default_rng(5)
        data = make_dataset(rng)
        theta_bm = data.y + rng.normal(0.0, 0.5, size=data.m)
        _, phi, omega = random_connected_instance(rng, data.m)
        pipe = smoothing_pipeline(omega, phi, 1.2)
        seed, B = 99, 200
        report = bootstrap_mse(
            data, theta_bm, per_replicate(pipe), BootstrapConfig(n_replicates=B, seed=seed)
        )

        sigma = np.sqrt(data.D)
        resid = (data.y - theta_bm) / sigma
        reps = np.empty((B, data.m))
        for b in range(B):
            gen = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(b, 0)))
            )
            u = resid[gen.integers(0, data.m, size=data.m)]
            y_star = theta_bm + sigma * u
            reps[b] = pipe(y_star)
        np.testing.assert_allclose(report.replicates, reps, rtol=0, atol=1e-12)
        np.testing.assert_allclose(report.mse, np.mean((reps - theta_bm) ** 2, axis=0), atol=1e-12)
        np.testing.assert_allclose(report.bias, reps.mean(axis=0) - theta_bm, atol=1e-12)

    def test_identical_seeds_identical_reports(self):
        rng = np.random.default_rng(6)
        data = make_dataset(rng)
        theta_bm = data.y + 0.2
        _, phi, omega = random_connected_instance(rng, data.m)
        pipe = smoothing_pipeline(omega, phi, 0.8)
        config = BootstrapConfig(n_replicates=50, seed=7)
        a = bootstrap_mse(data, theta_bm, per_replicate(pipe), config)
        b = bootstrap_mse(data, theta_bm, per_replicate(pipe), config)
        assert np.array_equal(a.replicates, b.replicates)
        assert np.array_equal(a.mse, b.mse)
        assert np.array_equal(a.bias, b.bias)

    def test_mse_decomposition_identity(self):
        rng = np.random.default_rng(8)
        data = make_dataset(rng)
        theta_bm = data.y - 0.4
        _, phi, omega = random_connected_instance(rng, data.m)
        pipe = smoothing_pipeline(omega, phi, 0.6)
        report = bootstrap_mse(
            data, theta_bm, per_replicate(pipe), BootstrapConfig(n_replicates=100, seed=11)
        )
        variance = np.mean((report.replicates - report.replicates.mean(axis=0)) ** 2, axis=0)
        np.testing.assert_allclose(report.mse, report.bias**2 + variance, rtol=0, atol=1e-10)

    def test_failed_replicates_recorded_within_budget(self):
        rng = np.random.default_rng(13)
        data = make_dataset(rng, m=6)
        theta_bm = data.y.copy()
        _, phi, omega = random_connected_instance(rng, 6)
        inner = smoothing_pipeline(omega, phi, 0.5)

        def flaky(y_star):
            if flaky.calls == 2:
                flaky.calls += 1
                raise NumericalError("boom")
            flaky.calls += 1
            return inner(y_star)

        flaky.calls = 0
        report = bootstrap_mse(
            data, theta_bm, per_replicate(flaky), BootstrapConfig(n_replicates=40, seed=1)
        )
        assert report.failed == (2,)
        assert np.all(np.isnan(report.replicates[2]))
        assert np.all(np.isfinite(report.mse))

    def test_excessive_failures_abort(self):
        rng = np.random.default_rng(14)
        data = make_dataset(rng, m=6)

        def always_fails(y_star):
            raise NumericalError("boom")

        with pytest.raises(NumericalError, match="bootstrap replicates failed"):
            bootstrap_mse(
                data, data.y, per_replicate(always_fails), BootstrapConfig(n_replicates=10, seed=1)
            )

    def test_programming_errors_propagate(self):
        rng = np.random.default_rng(14)
        data = make_dataset(rng, m=6)

        def buggy(y_star):
            raise TypeError("bad argument")

        with pytest.raises(TypeError, match="bad argument"):
            bootstrap_mse(data, data.y, per_replicate(buggy), BootstrapConfig(n_replicates=20, seed=1))

    def test_one_batch_call_with_every_replicate(self):
        rng = np.random.default_rng(16)
        data = make_dataset(rng, m=6)
        calls = []

        def identity(y_star):
            calls.append(y_star.copy())
            return y_star

        report = bootstrap_mse(data, data.y + 0.1, identity, BootstrapConfig(n_replicates=7, seed=4))
        assert len(calls) == 1
        y_star = calls[0]
        assert y_star.shape == (7, 6)
        assert np.array_equal(report.replicates, y_star)

    def test_non_finite_row_is_a_failed_replicate(self):
        rng = np.random.default_rng(17)
        data = make_dataset(rng, m=6)

        def one_bad_row(y_star):
            out = y_star.copy()
            out[3, 2] = np.inf
            return out

        report = bootstrap_mse(data, data.y, one_bad_row, BootstrapConfig(n_replicates=40, seed=2))
        assert report.failed == (3,)
        assert np.all(np.isnan(report.replicates[3]))
        assert np.all(np.isfinite(report.mse))

    @pytest.mark.parametrize("error", [ValidationError, NumericalError])
    def test_failing_batch_fails_every_replicate(self, error):
        rng = np.random.default_rng(18)
        data = make_dataset(rng, m=6)

        def diverged(y_star):
            raise error("chain diverged")

        with pytest.raises(NumericalError, match="all 20 bootstrap replicates failed: chain diverged"):
            bootstrap_mse(data, data.y, diverged, BootstrapConfig(n_replicates=20, seed=1))

    def test_wrong_shape_is_a_numerical_error(self):
        rng = np.random.default_rng(19)
        data = make_dataset(rng, m=6)
        with pytest.raises(NumericalError, match=r"shape \(5, 5\), expected \(5, 6\)"):
            bootstrap_mse(
                data, data.y, lambda ys: ys[:, 1:], BootstrapConfig(n_replicates=5, seed=1)
            )

    def test_zero_sampling_variance_rejected(self):
        rng = np.random.default_rng(15)
        data = make_dataset(rng, m=6)
        data = AreaDataset(
            data.labels,
            data.y,
            np.zeros(6),
            data.covariates,
            data.covariate_names,
        )
        with pytest.raises(ValidationError, match="positive sampling variance"):
            bootstrap_mse(data, data.y, lambda ys: ys, BootstrapConfig(n_replicates=2))


class TestStreamContract:
    def test_replicate_streams_are_distinct(self):
        a = replicate_rng(0, 0).integers(0, 100, size=8)
        b = replicate_rng(0, 1).integers(0, 100, size=8)
        assert not np.array_equal(a, b)


class TestReportValidation:
    def test_config_validation(self):
        with pytest.raises(ValidationError, match="n_replicates"):
            BootstrapConfig(n_replicates=0)

    @pytest.mark.parametrize(
        "fields, message",
        [
            pytest.param({"theta_bm": [0.0, "b"]}, "theta_bm must be a vector of real numbers", id="theta_bm-text"),
            pytest.param({"theta_bm": [0.0, np.nan]}, "theta_bm contains non-finite", id="theta_bm-nan"),
            pytest.param({"theta_bm": np.zeros(3)}, "theta_bm has length 3, expected 2", id="theta_bm-length"),
            pytest.param({"replicates": [["a", "b"]]}, "replicates must be a matrix of real numbers", id="replicates-text"),
            pytest.param({"replicates": np.zeros(2)}, "replicates must be two-dimensional", id="replicates-1d"),
        ],
    )
    def test_bad_fields_are_validation_errors_naming_the_field(self, fields, message):
        values = {"theta_bm": np.zeros(2), "replicates": np.zeros((2, 2)), **fields}
        with pytest.raises(ValidationError, match=message):
            BootstrapReport(**values)

    @pytest.mark.parametrize(
        "failed, message",
        [
            pytest.param((5,), r"failed\[0\] must be less than the 2 replicates, got 5", id="past-the-end"),
            pytest.param(("a",), r"failed\[0\] must be an integer, got 'a'", id="text"),
            pytest.param((0, -1), r"failed\[1\] must be a nonnegative integer, got -1", id="negative"),
        ],
    )
    def test_bad_failed_index_rejected(self, failed, message):
        reps = np.full((2, 2), np.nan)
        with pytest.raises(ValidationError, match=message):
            BootstrapReport(theta_bm=np.zeros(2), replicates=reps, failed=failed)

    def test_failed_replicates_stay_nan_rows(self):
        reps = np.array([[1.0, 2.0], [np.nan, np.nan], [3.0, 4.0]])
        report = BootstrapReport(theta_bm=np.array([2.0, 3.0]), replicates=reps, failed=(1,))
        assert np.all(np.isnan(report.replicates[1]))
        assert np.array_equal(report.mse, [1.0, 1.0]) and np.array_equal(report.bias, [0.0, 0.0])

    def test_n_replicates_counts_the_failed_ones_too(self):
        reps = np.array([[1.0, 2.0], [np.nan, np.nan], [3.0, 4.0]])
        report = BootstrapReport(theta_bm=np.array([2.0, 3.0]), replicates=reps, failed=(1,))
        assert report.n_replicates == 3
