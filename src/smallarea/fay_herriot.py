"""Gibbs sampler for the two-level normal area model.

The model:  y_i | t_i ~ N(t_i, D_i) with known sampling variance D_i, and
t_i | beta ~ N(x_i' beta, s2) with a flat prior on (s2, beta).  All three
full conditionals are conjugate:

  * t_i  | rest  is normal with precision 1/D_i + 1/s2 and mean the
    precision-weighted blend of y_i and the regression fit (t_i = y_i
    exactly when D_i = 0);
  * beta | rest  is N((X'X)^{-1} X' t, s2 (X'X)^{-1});
  * s2   | rest  is inverse-gamma with shape m/2 - 1 and scale half the
    residual sum of squares, which is proper only when m > p + 2.

A single chain is strictly sequential and fully reproducible from its
seed (counter-based Philox generator).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .exceptions import ValidationError

__all__ = [
    "AreaDataset",
    "GibbsConfig",
    "PosteriorSummary",
    "gibbs_fit",
    "posterior_mean",
]

_SIGMA2_FLOOR = 1e-12


@dataclass(frozen=True)
class AreaDataset:
    """Per-area observations: direct estimates, known sampling variances,
    covariates, and optional plumbing columns (loss weights, benchmark
    weights, group labels).

    ``covariates`` excludes the intercept; the design matrix ``X`` prepends
    a constant column when ``intercept`` is set.
    """

    labels: tuple[str, ...]
    y: np.ndarray
    D: np.ndarray
    covariates: np.ndarray
    covariate_names: tuple[str, ...]
    intercept: bool = True
    groups: tuple[str, ...] | None = None
    phi: np.ndarray | None = None
    benchmark_weights: np.ndarray | None = None

    def __post_init__(self):
        labels = tuple(str(s) for s in self.labels)
        m = len(labels)
        if m == 0:
            raise ValidationError("dataset must contain at least one area")
        if len(set(labels)) != m:
            dup = next(s for s in labels if labels.count(s) > 1)
            raise ValidationError(f"duplicate label {dup!r}")
        y = np.asarray(self.y, dtype=float)
        D = np.asarray(self.D, dtype=float)
        for name, v in (("y", y), ("D", D)):
            if v.shape != (m,):
                raise ValidationError(f"{name} has shape {v.shape}, expected ({m},)")
            if not np.all(np.isfinite(v)):
                raise ValidationError(f"{name} contains non-finite entries")
        if np.any(D < 0):
            i = int(np.argmin(D))
            raise ValidationError(f"negative sampling variance D at area {labels[i]!r}")
        cov = np.asarray(self.covariates, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != m:
            raise ValidationError(f"covariates have shape {cov.shape}, expected ({m}, q)")
        if not np.all(np.isfinite(cov)):
            raise ValidationError("covariates contain non-finite entries")
        names = tuple(str(s) for s in self.covariate_names)
        if len(names) != cov.shape[1]:
            raise ValidationError(
                f"{len(names)} covariate names for {cov.shape[1]} covariate columns"
            )
        X = np.column_stack([np.ones(m), cov]) if self.intercept else cov
        if X.shape[1] == 0:
            raise ValidationError("design matrix has no columns")
        if np.linalg.matrix_rank(X) < X.shape[1]:
            raise ValidationError("covariate matrix is rank deficient")
        groups = None if self.groups is None else tuple(str(s) for s in self.groups)
        if groups is not None and len(groups) != m:
            raise ValidationError(f"{len(groups)} group labels for {m} areas")
        phi = self.phi
        if phi is not None:
            phi = np.asarray(phi, dtype=float)
            if phi.shape != (m,) or not np.all(np.isfinite(phi)) or np.any(phi <= 0):
                raise ValidationError("phi must be a strictly positive length-m vector")
        bw = self.benchmark_weights
        if bw is not None:
            bw = np.asarray(bw, dtype=float)
            if bw.shape != (m,) or not np.all(np.isfinite(bw)):
                raise ValidationError("benchmark_weights must be a finite length-m vector")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "covariates", cov)
        object.__setattr__(self, "covariate_names", names)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "benchmark_weights", bw)

    @property
    def m(self) -> int:
        return len(self.labels)

    @property
    def X(self) -> np.ndarray:
        """Design matrix, with the intercept column prepended if enabled."""
        if self.intercept:
            return np.column_stack([np.ones(self.m), self.covariates])
        return self.covariates.copy()


@dataclass(frozen=True)
class GibbsConfig:
    """Chain length and seeding.  ``fixed_sigma_u2`` pins the model variance
    instead of sampling it (useful for validation against the known-variance
    closed form)."""

    n_iter: int = 10_000
    n_burn: int = 2_000
    thin: int = 1
    seed: int = 0
    fixed_sigma_u2: float | None = None

    def __post_init__(self):
        if self.n_burn < 0 or self.n_iter <= self.n_burn:
            raise ValidationError(
                f"need n_iter > n_burn >= 0, got n_iter={self.n_iter}, n_burn={self.n_burn}"
            )
        if self.thin < 1:
            raise ValidationError(f"thin must be >= 1, got {self.thin}")
        if self.fixed_sigma_u2 is not None and not (
            np.isfinite(self.fixed_sigma_u2) and self.fixed_sigma_u2 > 0
        ):
            raise ValidationError("fixed_sigma_u2 must be a positive real")


@dataclass(frozen=True)
class PosteriorSummary:
    """Retained draws and summaries from one chain.

    ``theta_bayes`` is the componentwise mean of the retained draws; this
    is the vector handed to the smoothing and benchmarking estimators.
    """

    theta_bayes: np.ndarray
    theta_draws: np.ndarray
    beta_mean: np.ndarray
    sigma_u2_mean: float
    beta_draws: np.ndarray
    sigma_u2_draws: np.ndarray
    ess: np.ndarray
    seed: int

    def __post_init__(self):
        if self.theta_draws.ndim != 2 or self.theta_draws.shape[0] < 1:
            raise ValidationError("theta_draws must be a nonempty (S, m) array")
        if not np.allclose(self.theta_bayes, self.theta_draws.mean(axis=0), atol=1e-10):
            raise ValidationError("theta_bayes must equal the mean of the retained draws")
        if np.any(self.sigma_u2_draws <= 0):
            raise ValidationError("all model-variance draws must be strictly positive")

    @property
    def n_draws(self) -> int:
        return self.theta_draws.shape[0]


def posterior_mean(theta_draws: np.ndarray) -> np.ndarray:
    """Componentwise mean of retained draws."""
    draws = np.asarray(theta_draws, dtype=float)
    if draws.ndim != 2 or draws.shape[0] == 0:
        raise ValidationError("at least one retained draw is required")
    return draws.mean(axis=0)


def _effective_sample_size(x: np.ndarray) -> float:
    """ESS of one chain via the initial-positive-sequence rule on paired
    autocorrelations."""
    n = x.shape[0]
    if n < 4:
        return float(n)
    xc = x - x.mean()
    c0 = float(xc @ xc)
    if c0 == 0.0:
        return float(n)
    # autocovariances via FFT
    size = int(2 ** np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(xc, size)
    acov = np.fft.irfft(f * np.conjugate(f), size)[:n].real
    rho = acov / acov[0]
    tau = 1.0
    k = 1
    while k + 1 < n:
        pair = rho[k] + rho[k + 1]
        if pair <= 0:
            break
        tau += 2.0 * pair
        k += 2
    return float(max(1.0, n / tau))


def gibbs_fit(data: AreaDataset, config: GibbsConfig) -> PosteriorSummary:
    """Run the systematic-scan Gibbs sampler and summarize the chain.

    Initialization is deterministic: beta from ordinary least squares,
    the model variance from its method-of-moments estimate (floored at
    1e-6), and theta from y.  Each iteration updates theta, then beta,
    then the model variance; iterations past the burn-in are retained at
    the thinning stride.

    Raises ValidationError when m <= p + 2, where the flat prior does not
    yield a proper variance conditional.
    """
    X = data.X
    m, p = X.shape
    if m <= p + 2:
        raise ValidationError(
            "insufficient areas for flat-prior posterior propriety "
            f"(m={m} must exceed p+2={p + 2})"
        )
    y, D = data.y, data.D
    rng = np.random.Generator(np.random.Philox(config.seed))

    chol_lower = np.linalg.cholesky(X.T @ X)
    xtx_cho = (chol_lower, True)

    beta = cho_solve(xtx_cho, X.T @ y)
    resid = y - X @ beta
    if config.fixed_sigma_u2 is not None:
        sigma2 = float(config.fixed_sigma_u2)
    else:
        sigma2 = max(1e-6, float(np.mean(resid**2) - np.mean(D)))
    theta = y.copy()

    observed = D > 0
    n_keep = (config.n_iter - config.n_burn + config.thin - 1) // config.thin
    theta_draws = np.empty((n_keep, m))
    beta_draws = np.empty((n_keep, p))
    sigma2_draws = np.empty(n_keep)
    kept = 0

    for it in range(config.n_iter):
        fit = X @ beta
        z = rng.standard_normal(m)
        theta = y.copy()  # D_i = 0 pins theta_i = y_i
        if np.any(observed):
            prec = 1.0 / D[observed] + 1.0 / sigma2
            mean = (y[observed] / D[observed] + fit[observed] / sigma2) / prec
            theta[observed] = mean + z[observed] / np.sqrt(prec)

        beta_mean = cho_solve(xtx_cho, X.T @ theta)
        beta = beta_mean + np.sqrt(sigma2) * solve_triangular(
            chol_lower.T, rng.standard_normal(p), lower=False
        )

        if config.fixed_sigma_u2 is None:
            ssr = float(np.sum((theta - X @ beta) ** 2))
            if ssr > 0:
                # shape m/2 - 1 >= 1 under the propriety guard, so the
                # gamma draw is positive
                g = rng.gamma(0.5 * m - 1.0, 2.0 / ssr)
                sigma2 = 1.0 / g
            else:
                sigma2 = 0.0  # degenerate residuals; floored below
            sigma2 = float(min(max(sigma2, _SIGMA2_FLOOR), np.finfo(float).max))

        if it >= config.n_burn and (it - config.n_burn) % config.thin == 0:
            theta_draws[kept] = theta
            beta_draws[kept] = beta
            sigma2_draws[kept] = sigma2
            kept += 1

    ess = np.array([_effective_sample_size(theta_draws[:, j]) for j in range(m)])
    return PosteriorSummary(
        theta_bayes=posterior_mean(theta_draws),
        theta_draws=theta_draws,
        beta_mean=beta_draws.mean(axis=0),
        sigma_u2_mean=float(sigma2_draws.mean()),
        beta_draws=beta_draws,
        sigma_u2_draws=sigma2_draws,
        ess=ess,
        seed=config.seed,
    )
