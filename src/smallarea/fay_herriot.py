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

One sampler core advances B chains in lock step, with theta (B, m),
beta (B, p) and the model variance (B,): :func:`gibbs_fit` is its B = 1
case and keeps the draws, and :func:`gibbs_means` runs a batch (the
bootstrap replicates) keeping only a running sum of the retained theta.

RNG stream contract: each chain is strictly sequential and reproducible
from its own seed, and draws from two counter-based streams.  Chain b's
``Philox(seed_b)`` gives one ``standard_normal(m + p)`` per iteration:
theta's m normals, then beta's p.  When the variance is sampled,
``Philox(seed_b).jumped()``, a disjoint stream 2^128 draws ahead, gives
one ``standard_gamma(m/2 - 1)`` per iteration, drawn whether or not that
iteration's residual sum of squares is positive; a fixed variance creates
no gamma stream.  The loop fills each stream several iterations per call,
but the block length is not part of the contract: numpy fills a buffer in
order, so a block holds exactly the draws of the per-iteration calls.  A
chain therefore makes the same draws alone or inside a batch; only the
rounding of the batched matrix products differs.  The per-area effective
sample size is computed when first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ValidationError, _integer, _matrix, _real, _vector

__all__ = [
    "AreaDataset",
    "GibbsConfig",
    "PosteriorSummary",
    "gibbs_fit",
    "gibbs_means",
    "posterior_mean",
]

_SIGMA2_FLOOR = 1e-12
_SIGMA2_MAX = float(np.finfo(float).max)
_BLOCK_DRAWS = 2**16  # normals buffered per block across all chains: 512 KiB


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
        y = _vector("y", self.y, m)
        D = _vector("D", self.D, m)
        if np.any(D < 0):
            i = int(np.argmin(D))
            raise ValidationError(f"negative sampling variance D at area {labels[i]!r}")
        cov = _matrix("covariates", self.covariates)
        if cov.shape[0] != m:
            raise ValidationError(f"covariates have shape {cov.shape}, expected ({m}, q)")
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
        phi = None if self.phi is None else _vector("phi", self.phi, m)
        if phi is not None and np.any(phi <= 0):
            raise ValidationError("phi must be strictly positive")
        bw = self.benchmark_weights
        bw = None if bw is None else _vector("benchmark_weights", bw, m)
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
        for name, minimum in (("n_iter", None), ("n_burn", None), ("thin", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), minimum))
        if self.n_burn < 0 or self.n_iter <= self.n_burn:
            raise ValidationError(
                f"need n_iter > n_burn >= 0, got n_iter={self.n_iter}, n_burn={self.n_burn}"
            )
        if self.fixed_sigma_u2 is not None:
            s2 = _real("fixed_sigma_u2", self.fixed_sigma_u2, 0)
            if s2 == 0:
                raise ValidationError("fixed_sigma_u2 must be a positive real")
            object.__setattr__(self, "fixed_sigma_u2", s2)


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

    @cached_property
    def ess(self) -> np.ndarray:
        """Per-area effective sample size of the theta draws, computed on first read."""
        return _effective_sample_size(self.theta_draws)


def posterior_mean(theta_draws: np.ndarray) -> np.ndarray:
    """Componentwise mean of retained draws."""
    draws = np.asarray(theta_draws, dtype=float)
    if draws.ndim != 2 or draws.shape[0] == 0:
        raise ValidationError("at least one retained draw is required")
    return draws.mean(axis=0)


def _effective_sample_size(draws: np.ndarray) -> np.ndarray:
    """ESS of each column of an (n, m) chain via the initial-positive-sequence
    rule on paired autocorrelations.  A constant column has ESS n, and so has
    any column when n < 4: it has no pair, or only rho_1 + rho_2 = -1/2."""
    n, m = draws.shape
    ess = np.full(m, float(n))
    varying = np.flatnonzero(np.ptp(draws, axis=0) > 0)
    size = int(2 ** np.ceil(np.log2(2 * n)))
    block = max(1, 2**18 // size)  # columns per FFT pass: bounds its buffers at a few MB
    for lo in range(0, len(varying), block):
        cols = varying[lo : lo + block]
        xc = draws[:, cols] - draws[:, cols].mean(axis=0)
        # autocovariances via FFT
        f = np.fft.rfft(xc, size, axis=0)
        acov = np.fft.irfft(f * np.conjugate(f), size, axis=0)[:n]
        rho = acov / acov[0]
        # pairs rho_k + rho_{k+1} for k = 1, 3, ..., summed up to the first one <= 0
        pairs = rho[1 : n - 1 : 2] + rho[2:n:2]
        tau = 1.0 + 2.0 * np.sum(pairs * np.cumprod(pairs > 0, axis=0), axis=0)
        ess[cols] = np.maximum(1.0, n / tau)
    return ess


def _lockstep(data: AreaDataset, Y: np.ndarray, seeds, config: GibbsConfig):
    """Run one chain per row of ``Y`` in lock step; yield ``(theta, beta,
    sigma2)``, shaped (B, m), (B, p) and (B,), at each retained iteration.

    Row b is the chain on responses ``Y[b]`` with its own two streams (see
    the module docstring).  Every K iterations each chain refills its rows
    of a (B, K, m + p) normal block and a (B, K) gamma block with one call
    per stream, so the loop makes at most 2B generator calls per K
    iterations.  K bounds the normal block at ``_BLOCK_DRAWS`` doubles and
    the last block is shorter; since numpy fills in order, K changes no
    draw.  The yielded arrays are overwritten by the next step, so a caller
    that keeps them copies them.
    """
    X = data.X
    m, p = X.shape
    if m <= p + 2:
        raise ValidationError(
            "insufficient areas for flat-prior posterior propriety "
            f"(m={m} must exceed p+2={p + 2})"
        )
    D = data.D
    B = len(seeds)
    sampled = config.fixed_sigma_u2 is None
    # two disjoint streams per chain: the normals, and (2^128 draws ahead) the gammas
    normal_fills = [np.random.Generator(np.random.Philox(s)).standard_normal for s in seeds]
    gamma_fills = [
        np.random.Generator(np.random.Philox(s).jumped()).standard_gamma for s in seeds if sampled
    ]

    # beta | rest = P theta + sqrt(s2) R z: P = (X'X)^{-1} X', R = L^{-T}, X'X = LL';
    # chains are rows here, so the loop multiplies by the transposes P' and R'
    xtx = X.T @ X
    Pt = np.linalg.solve(xtx, X.T).T
    Rt = np.linalg.inv(np.linalg.cholesky(xtx))

    beta = Y @ Pt
    if sampled:
        sigma2 = np.maximum(1e-6, np.mean((Y - beta @ X.T) ** 2, axis=1) - np.mean(D))
    else:
        sigma2 = np.full(B, float(config.fixed_sigma_u2))

    # only areas with D_i > 0 are ever rewritten, so D_i = 0 pins theta_i = y_i
    observed = D > 0
    cols = slice(0, m) if np.all(observed) else np.flatnonzero(observed)
    theta = Y.copy()
    Xt = np.ascontiguousarray(X.T)
    Xt_obs = X[cols].T
    inv_D = 1.0 / D[cols]
    y_over_D = Y[:, cols] / D[cols]
    # noise[b, k] is chain b's standard_normal(m + p) of the block's k-th
    # iteration (normal(m), then normal(p)) and gam[b, k] its standard_gamma
    K = max(1, min(config.n_iter, _BLOCK_DRAWS // (B * (m + p))))
    noise = np.empty((B, K, m + p))
    gam = np.empty((B, K))
    shape = 0.5 * m - 1.0  # >= 1 under the propriety guard, so gamma draws are positive

    for it in range(config.n_iter):
        k = it % K
        if k == 0:
            n = min(K, config.n_iter - it)
            for fill, block in zip(normal_fills, noise):
                fill(out=block[:n])
            for fill, row in zip(gamma_fills, gam):
                fill(shape, out=row[:n])
        z = noise[:, k]
        prec = inv_D + (1.0 / sigma2)[:, None]
        mean = (y_over_D + (beta @ Xt_obs) / sigma2[:, None]) / prec
        theta[:, cols] = mean + z[:, cols] / np.sqrt(prec)

        beta = theta @ Pt + np.sqrt(sigma2)[:, None] * (z[:, m:] @ Rt)

        if sampled:
            resid = theta - beta @ Xt
            ssr = (resid * resid).sum(axis=1)
            # s2 = 1 / gamma(shape, scale 2/ssr), scaled as numpy's gamma scales;
            # a row with degenerate residuals gets 1/inf = 0, floored below
            with np.errstate(divide="ignore", over="ignore"):
                sigma2 = 1.0 / ((2.0 / ssr) * gam[:, k])
            sigma2 = np.minimum(np.maximum(sigma2, _SIGMA2_FLOOR), _SIGMA2_MAX)

        if it >= config.n_burn and (it - config.n_burn) % config.thin == 0:
            yield theta, beta, sigma2


def _n_keep(config: GibbsConfig) -> int:
    return (config.n_iter - config.n_burn + config.thin - 1) // config.thin


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
    n_keep = _n_keep(config)
    theta_draws = np.empty((n_keep, data.m))
    beta_draws = np.empty((n_keep, data.X.shape[1]))
    sigma2_draws = np.empty(n_keep)
    chain = _lockstep(data, data.y[np.newaxis, :], [config.seed], config)
    for k, (theta, beta, sigma2) in enumerate(chain):
        theta_draws[k], beta_draws[k], sigma2_draws[k] = theta[0], beta[0], sigma2[0]

    return PosteriorSummary(
        theta_bayes=posterior_mean(theta_draws),
        theta_draws=theta_draws,
        beta_mean=beta_draws.mean(axis=0),
        sigma_u2_mean=float(sigma2_draws.mean()),
        beta_draws=beta_draws,
        sigma_u2_draws=sigma2_draws,
        seed=config.seed,
    )


def gibbs_means(data: AreaDataset, Y: np.ndarray, seeds, config: GibbsConfig) -> np.ndarray:
    """Posterior means of theta for B chains run in lock step, as a (B, m) array.

    Row b is the chain of :func:`gibbs_fit` on ``data`` with responses
    ``Y[b]`` and seed ``seeds[b]`` (``config.seed`` is not used): the same
    random stream, and the same ``theta_bayes`` up to the rounding of the
    batched matrix products.  Only a running sum of the retained theta is
    kept, so memory is O(Bm) and no ESS is computed.
    """
    if len(seeds) == 0:
        raise ValidationError("at least one chain is required: seeds is empty")
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != data.m or Y.shape[0] != len(seeds):
        raise ValidationError(
            f"responses have shape {Y.shape}, expected ({len(seeds)}, {data.m}): "
            "one row per seed"
        )
    if not np.all(np.isfinite(Y)):
        raise ValidationError("responses contain non-finite entries")
    seeds = [_integer(f"seeds[{b}]", s, 0) for b, s in enumerate(seeds)]
    total = np.zeros(Y.shape)
    for theta, _, _ in _lockstep(data, Y, seeds, config):
        total += theta
    return total / _n_keep(config)
