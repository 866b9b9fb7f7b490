"""Gibbs sampler and exact posterior means for the two-level normal area model.

The model:  y_i | t_i ~ N(t_i, D_i) with known sampling variance D_i, and
t_i | beta ~ N(x_i' beta, s2) with a flat prior on (s2, beta).  All three
full conditionals are conjugate:

  * t_i  | rest  is normal with precision 1/D_i + 1/s2 and mean the
    precision-weighted blend of y_i and the regression fit (t_i = y_i
    exactly when D_i = 0);
  * beta | rest  is N((X'X)^{-1} X' t, s2 (X'X)^{-1});
  * s2   | rest  is inverse-gamma with shape m/2 - 1 and scale half the
    residual sum of squares, which is proper only when m > p + 2.

The chain (:func:`gibbs_fit`) gives the pipeline's theta_bayes, its draws
and their ESS.  :func:`exact_means` computes the same posterior mean
exactly, by one-dimensional quadrature over s2, for any number of response
vectors at once: the bootstrap replicates' Bayes step, and the Monte Carlo
error check of the chain.

RNG stream contract: the chain is strictly sequential and reproducible
from its seed, and draws from two counter-based streams.  ``Philox(seed)``
gives one ``standard_normal(m + p)`` per iteration: theta's m normals, then
beta's p.  When the variance is sampled, ``Philox(seed).jumped()``, a
disjoint stream 2^128 draws ahead, gives one ``standard_gamma(m/2 - 1)``
per iteration, drawn whether or not that iteration's residual sum of
squares is positive; a fixed variance creates no gamma stream.  The loop
fills each stream several iterations per call, but the block length is
not part of the contract: numpy fills a buffer in order, so a block holds
exactly the draws of the per-iteration calls.  The per-area effective
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
    "exact_means",
    "gibbs_fit",
    "posterior_mean",
]

_SIGMA2_FLOOR = 1e-12
_SIGMA2_MAX = float(np.finfo(float).max)
_BLOCK_DRAWS = 2**16  # normals buffered per block of the chain: 512 KiB
_COARSE_NODES = 48  # nodes of exact_means's bracketing pass
_FINE_NODES = 200  # trapezoid nodes over each row's window
_LOG_WEIGHT_CUT = 38.0  # nodes this far below the largest log weight (e^-38) are dropped
_CHUNK_DOUBLES = 2**15  # largest (rows x nodes x m) temporary of exact_means: 256 KiB


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


def _fixed_variance(value) -> float:
    """A pinned model variance as a float; it must be a positive real."""
    s2 = _real("fixed_sigma_u2", value, 0)
    if s2 == 0:
        raise ValidationError("fixed_sigma_u2 must be a positive real")
    return s2


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
            object.__setattr__(self, "fixed_sigma_u2", _fixed_variance(self.fixed_sigma_u2))


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


def _check_propriety(m: int, p: int) -> None:
    if m <= p + 2:
        raise ValidationError(
            "insufficient areas for flat-prior posterior propriety "
            f"(m={m} must exceed p+2={p + 2})"
        )


def gibbs_fit(data: AreaDataset, config: GibbsConfig) -> PosteriorSummary:
    """Run the systematic-scan Gibbs sampler and summarize the chain.

    Initialization is deterministic: beta from ordinary least squares,
    the model variance from its method-of-moments estimate (floored at
    1e-6), and theta from y.  Each iteration updates theta, then beta,
    then the model variance; iterations past the burn-in are retained at
    the thinning stride.  Every K iterations the chain refills a (K, m + p)
    normal block and a K-long gamma block with one call per stream (see
    the module docstring); K bounds the normal block at ``_BLOCK_DRAWS``
    doubles and the last block is shorter.

    Raises ValidationError when m <= p + 2, where the flat prior does not
    yield a proper variance conditional.
    """
    X, y, D = data.X, data.y, data.D
    m, p = X.shape
    _check_propriety(m, p)
    sampled = config.fixed_sigma_u2 is None
    # two disjoint streams: the normals, and (2^128 draws ahead) the gammas
    normals = np.random.Generator(np.random.Philox(config.seed)).standard_normal
    gammas = np.random.Generator(np.random.Philox(config.seed).jumped()).standard_gamma

    # beta | rest = P theta + sqrt(s2) R z: P = (X'X)^{-1} X', R = L^{-T}, X'X = LL';
    # theta and z are row vectors here, so the loop multiplies by P' and R'
    xtx = X.T @ X
    Pt = np.linalg.solve(xtx, X.T).T
    Rt = np.linalg.inv(np.linalg.cholesky(xtx))

    beta = y @ Pt
    if sampled:
        sigma2 = np.maximum(1e-6, np.mean((y - beta @ X.T) ** 2) - np.mean(D))
    else:
        sigma2 = np.float64(config.fixed_sigma_u2)

    # only areas with D_i > 0 are ever rewritten, so D_i = 0 pins theta_i = y_i
    observed = D > 0
    cols = slice(0, m) if np.all(observed) else np.flatnonzero(observed)
    theta = y.copy()
    Xt = np.ascontiguousarray(X.T)
    Xt_obs = X[cols].T
    inv_D = 1.0 / D[cols]
    y_over_D = y[cols] / D[cols]
    # noise[k] is the block's k-th standard_normal(m + p) (normal(m), then
    # normal(p)) and gam[k] its standard_gamma
    K = max(1, min(config.n_iter, _BLOCK_DRAWS // (m + p)))
    noise = np.empty((K, m + p))
    gam = np.empty(K)
    shape = 0.5 * m - 1.0  # >= 1 under the propriety guard, so gamma draws are positive

    n_keep = (config.n_iter - config.n_burn + config.thin - 1) // config.thin
    theta_draws = np.empty((n_keep, m))
    beta_draws = np.empty((n_keep, p))
    sigma2_draws = np.empty(n_keep)
    for it in range(config.n_iter):
        k = it % K
        if k == 0:
            n = min(K, config.n_iter - it)
            normals(out=noise[:n])
            if sampled:
                gammas(shape, out=gam[:n])
        z = noise[k]
        prec = inv_D + 1.0 / sigma2
        mean = (y_over_D + (beta @ Xt_obs) / sigma2) / prec
        theta[cols] = mean + z[cols] / np.sqrt(prec)

        beta = theta @ Pt + np.sqrt(sigma2) * (z[m:] @ Rt)

        if sampled:
            resid = theta - beta @ Xt
            ssr = (resid * resid).sum()
            # s2 = 1 / gamma(shape, scale 2/ssr), scaled as numpy's gamma scales;
            # degenerate residuals give 1/inf = 0, floored below
            with np.errstate(divide="ignore", over="ignore"):
                sigma2 = 1.0 / ((2.0 / ssr) * gam[k])
            sigma2 = np.minimum(np.maximum(sigma2, _SIGMA2_FLOOR), _SIGMA2_MAX)

        if it >= config.n_burn and (it - config.n_burn) % config.thin == 0:
            j = (it - config.n_burn) // config.thin
            theta_draws[j], beta_draws[j], sigma2_draws[j] = theta, beta, sigma2

    return PosteriorSummary(
        theta_bayes=posterior_mean(theta_draws),
        theta_draws=theta_draws,
        beta_mean=beta_draws.mean(axis=0),
        sigma_u2_mean=float(sigma2_draws.mean()),
        beta_draws=beta_draws,
        sigma_u2_draws=sigma2_draws,
        seed=config.seed,
    )


def _node_terms(X, XX, D, Y, T):
    """Log posterior weight in t = log s2 of each node ``T`` (R, n) of rows
    ``Y`` (R, m), and ``V^{-1}(y - X beta_hat)`` at each node, (R, n, m)."""
    R, n = T.shape
    m, p = X.shape
    # log|V|, then V^{-1} in V's buffer: buffers are reused so that the
    # chunk's peak is two (R, n, m) arrays and one transient
    v = np.exp(T)[:, :, None] + D
    log_det = np.log(v).sum(axis=-1)
    w = np.reciprocal(v, out=v)
    # X'V^{-1}X and X'V^{-1}y for every (row, node): one GEMM each; the
    # unit-diagonal rescaling S A S, S = diag(A)^{-1/2}, is factored for
    # the determinant and solved for beta_hat
    A = (w.reshape(R * n, m) @ XX).reshape(R, n, p, p)
    b = ((w * Y[:, None, :]).reshape(R * n, m) @ X).reshape(R, n, p, 1)
    S = 1.0 / np.sqrt(np.diagonal(A, axis1=-2, axis2=-1))[..., None]
    A *= S * S.swapaxes(-1, -2)
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:  # numerically singular: the chunk's rows come out NaN
        return np.full(T.shape, np.nan), np.full((R, n, m), np.nan)
    beta = S * np.linalg.solve(A, S * b)
    wr = beta[..., 0] @ X.T
    np.subtract(Y[:, None, :], wr, out=wr)
    quad_form = np.einsum("rnm,rnm,rnm->rn", wr, wr, w)
    wr *= w
    log_det += 2.0 * (np.log(np.diagonal(L, axis1=-2, axis2=-1)) - np.log(S[..., 0])).sum(axis=-1)
    # the node's Jacobian ds2 = s2 dt is the leading T
    return T - 0.5 * (log_det + quad_form), wr


def _chunks(R: int, n: int, m: int):
    """(row, node) slices covering an (R, n) grid whose (rows x nodes x m)
    blocks hold at most ``_CHUNK_DOUBLES`` doubles."""
    pairs = max(1, _CHUNK_DOUBLES // m)
    rows, nodes = (max(1, pairs // n), n) if n <= pairs else (1, pairs)
    for r in range(0, R, rows):
        for k in range(0, n, nodes):
            yield slice(r, r + rows), slice(k, k + nodes)


def exact_means(data: AreaDataset, Y, fixed_sigma_u2: float | None = None) -> np.ndarray:
    """Exact posterior means of theta under the sampler's model and flat
    prior, one row per row of the responses ``Y``, as a (B, m) array.

    Given s2, theta | y is normal with mean ``y - D * V^{-1}(y - X beta_hat)``,
    where V = diag(s2 + D) and beta_hat is the GLS fit; integrating beta
    out leaves ``p(s2 | y) ∝ |V|^{-1/2} |X'V^{-1}X|^{-1/2} exp(-y'Py/2)``
    (Morris 1983; Datta, Rao & Smith 2005).  The mean is the integral of
    the first against the second, taken in t = log s2.  A coarse pass of
    48 nodes brackets each row's window, the nodes within 38 of the largest
    log weight, plus one node spacing either side; a 200-node trapezoid
    over that window, normalised by log-sum-exp, gives the row.  The
    coarse range follows the weight's two tails, which are known: below
    the harmonic scale 1 / sum(1/D_i) of the sampling variances the log
    weight falls like t, and above both the largest D_i and the residual
    scale SSR / (m - p - 2) it falls like (m - p - 2) t / 2.  The range
    runs from 45 below the first to 45 + 76 / (m - p - 2) above the second.
    A row whose window reaches an end of that range is NaN, never
    truncated.  Temporaries are chunked over rows and nodes, each at most
    ``_CHUNK_DOUBLES`` doubles.

    Areas with D_i = 0 get theta_i = y_i exactly.  With ``fixed_sigma_u2``
    each row is the conditional mean at that variance.  Raises
    ValidationError when m <= p + 2, where the posterior is improper.
    """
    X = data.X
    m, p = X.shape
    _check_propriety(m, p)
    if np.any(data.D == 0):
        # rotate the design so the directions the D = 0 areas pin as s2 -> 0
        # are coordinates, which the diagonal rescaling then balances; a
        # rotation changes no fitted value and no determinant
        X = X @ np.linalg.svd(X[data.D == 0])[2].T
    Y = _matrix("responses", Y)
    if Y.shape[0] == 0 or Y.shape[1] != m:
        raise ValidationError(f"responses have shape {Y.shape}, expected (B, {m}) with B >= 1")
    D = data.D
    XX = (X[:, :, None] * X[:, None, :]).reshape(m, p * p)
    B = Y.shape[0]
    out = Y.copy()
    if fixed_sigma_u2 is not None:
        T = np.full((B, 1), np.log(_fixed_variance(fixed_sigma_u2)))
        for rows, _ in _chunks(B, 1, m):
            out[rows] -= D * _node_terms(X, XX, D, Y[rows], T[rows])[1][:, 0]
        return out
    if not np.any(D > 0):
        return out

    # coarse range from the two tails (see the docstring)
    decay = m - p - 2
    ssr = np.sum((Y - Y @ np.linalg.pinv(X).T @ X.T) ** 2, axis=1)
    low = np.log(1.0 / np.sum(1.0 / D[D > 0])) - 45.0
    high = np.log(np.maximum(ssr / decay, D.max())) + 45.0 + 76.0 / decay
    T = low + (high - low)[:, None] * np.linspace(0.0, 1.0, _COARSE_NODES)
    coarse = np.empty((B, _COARSE_NODES))
    for rows, nodes in _chunks(B, _COARSE_NODES, m):
        coarse[rows, nodes] = _node_terms(X, XX, D, Y[rows], T[rows, nodes])[0]
    kept = coarse >= coarse.max(axis=1, keepdims=True) - _LOG_WEIGHT_CUT
    first = np.argmax(kept, axis=1)
    last = _COARSE_NODES - 1 - np.argmax(kept[:, ::-1], axis=1)
    ok = (first > 0) & (last < _COARSE_NODES - 1) & np.all(np.isfinite(coarse), axis=1)
    out[~ok] = np.nan
    rows_ok = np.flatnonzero(ok)
    lo = T[rows_ok, first[ok] - 1]
    hi = T[rows_ok, last[ok] + 1]
    T = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, _FINE_NODES)
    Y = Y[ok]
    ends = np.zeros(_FINE_NODES)
    ends[[0, -1]] = np.log(0.5)  # trapezoid end weights

    # running log-sum-exp of the weights and of the weighted V^{-1} residuals
    top = np.full(len(Y), -np.inf)
    total = np.zeros(len(Y))
    acc = np.zeros(Y.shape)
    for rows, nodes in _chunks(len(Y), _FINE_NODES, m):
        log_w, wr = _node_terms(X, XX, D, Y[rows], T[rows, nodes])
        log_w += ends[nodes]
        new_top = np.maximum(top[rows], log_w.max(axis=1))
        scale = np.exp(top[rows] - new_top)
        e = np.exp(log_w - new_top[:, None])
        total[rows] = total[rows] * scale + e.sum(axis=1)
        acc[rows] = acc[rows] * scale[:, None] + np.einsum("rn,rnm->rm", e, wr)
        top[rows] = new_top
    out[ok] -= D * (acc / total[:, None])
    return out
