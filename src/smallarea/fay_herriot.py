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

The chain (:func:`gibbs_fit`) gives the pipeline's theta_bayes, and the
retained theta draws and their ESS when asked to keep them; otherwise it
keeps only the running sum of those draws, which gives the same mean bit
for bit.  Its beta and model-variance draws are always kept.
:func:`exact_means` computes the same posterior mean exactly, by
one-dimensional quadrature over s2, for any number of response vectors at
once: the bootstrap replicates' Bayes step, and the Monte Carlo error
check of the chain.  The vectors share one lattice of nodes in
log s2, so everything that depends on s2 alone (V, X'V^{-1}X, its factor
and inverse) is computed once per node for the whole batch, and each
vector is evaluated only on the nodes near its own window.

RNG stream contract: the chain is strictly sequential and reproducible
from its seed, and draws from two counter-based streams.  ``Philox(seed)``
gives one ``standard_normal(m + p)`` per iteration: theta's m normals, then
beta's p.  When the variance is sampled, ``Philox(seed).jumped()``, a
disjoint stream 2^128 draws ahead, gives one ``standard_gamma(m/2 - 1)``
draw g per iteration, drawn whether or not that iteration's residual sum
of squares ssr is positive, and the variance is ssr / (2 g); a fixed
variance creates no gamma stream.  The loop fills each stream several
iterations per call, but the block length is not part of the contract:
numpy fills a buffer in order, so a block holds exactly the draws of the
per-iteration calls, and beta's noise term z_p R' is formed for the whole
block as an elementwise sum over the p normals, so each row is what one
iteration alone would compute.  Each iteration writes its theta and beta
over its own rows of the block, and the block's retained rows are copied
to the draws, or added to the running sum, once the block is done.  The
per-area effective sample size is computed when first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import NumericalError, ValidationError, _integer, _matrix, _real, _vector

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
_COARSE_NODES = 48  # coarse nodes across the shortest row range of a batch
_FINE_NODES = 200  # fine nodes across the narrowest window of a batch
_LOG_WEIGHT_CUT = 38.0  # nodes this far below the largest log weight (e^-38) are dropped
_CHUNK_DOUBLES = 2**15  # largest temporary of exact_means's row chunks: 256 KiB


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
            i = int(np.argmin(phi))
            raise ValidationError(f"phi must be strictly positive; phi={phi[i]:g} at area {labels[i]!r}")
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
    """Retained draws from one chain, and their summaries, each computed
    on first read.  A chain that keeps no theta draws gives their sum,
    ``theta_sum``, in place of ``theta_draws``; exactly one of the two is
    set.  :func:`gibbs_fit` adds the draws to that sum one reduction per
    block, in the order ``theta_draws.mean(axis=0)`` adds them.

    ``theta_bayes`` is the componentwise mean of the retained theta draws,
    ``theta_draws.mean(axis=0)`` or ``theta_sum / n_draws``; this is the
    vector handed to the smoothing and benchmarking estimators.  ``ess``
    needs the draws, and is None without them.
    """

    theta_draws: np.ndarray | None
    beta_draws: np.ndarray
    sigma_u2_draws: np.ndarray
    theta_sum: np.ndarray | None = None

    def __post_init__(self):
        if (self.theta_draws is None) == (self.theta_sum is None):
            raise ValidationError("give exactly one of theta_draws and theta_sum")
        if self.theta_draws is not None and (self.theta_draws.ndim != 2 or self.theta_draws.shape[0] < 1):
            raise ValidationError("theta_draws must be a nonempty (S, m) array")
        if len(self.sigma_u2_draws) < 1 or np.any(self.sigma_u2_draws <= 0):
            raise ValidationError("the model-variance draws must be nonempty and strictly positive")

    @property
    def n_draws(self) -> int:
        return len(self.sigma_u2_draws)

    @cached_property
    def theta_bayes(self) -> np.ndarray:
        if self.theta_draws is None:
            return self.theta_sum / self.n_draws
        return self.theta_draws.mean(axis=0)

    @cached_property
    def beta_mean(self) -> np.ndarray:
        return self.beta_draws.mean(axis=0)

    @cached_property
    def sigma_u2_mean(self) -> float:
        return float(self.sigma_u2_draws.mean())

    @cached_property
    def ess(self) -> np.ndarray | None:
        """Per-area effective sample size of the theta draws, or None
        without them."""
        return None if self.theta_draws is None else _effective_sample_size(self.theta_draws)


def posterior_mean(theta_draws: np.ndarray) -> np.ndarray:
    """Componentwise mean of retained draws."""
    draws = _matrix("theta_draws", theta_draws)
    if draws.shape[0] == 0:
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


# overflowing draws warn nothing: the final finiteness check judges them
@np.errstate(over="ignore", invalid="ignore")
def gibbs_fit(data: AreaDataset, config: GibbsConfig, *, keep_theta_draws: bool = True) -> PosteriorSummary:
    """Run the systematic-scan Gibbs sampler and summarize the chain.

    Initialization is deterministic: beta from ordinary least squares,
    the model variance from its method-of-moments estimate (floored at
    1e-6), and theta from y.  Each iteration updates theta, then beta,
    then the model variance; iterations past the burn-in are retained at
    the thinning stride.  The theta step runs over all m areas, and an
    area with D_i = 0 is then reset to y_i.  Every K iterations the chain
    refills a (K, m + p) normal block and a K-long gamma block with one
    call per stream (see the module docstring), and forms the block's beta
    noise terms z_p R' as an elementwise sum over p, whose rows do not
    depend on K; K bounds the normal block at ``_BLOCK_DRAWS`` doubles and
    the last block is shorter.  Each iteration makes one product X beta,
    the fit read by its residual and by the next iteration's theta step,
    and takes the residual sum of squares as one dot product.  It writes
    theta over its own m normals in the block and beta over its own row
    of noise terms, each read before it is written, and appends the model
    variance to the block's list; the other buffers are allocated once.
    When a block is done, its retained rows, every thin-th from the first
    at or past the burn-in, are copied to the beta and model-variance
    draws, and to the theta draws when ``keep_theta_draws`` is set.  With
    ``keep_theta_draws`` false there is no (n_keep, m) theta array: a
    running sum, which starts at -0.0, is added into the block's first
    retained theta, and the sum becomes one reduction of the block's
    retained thetas over axis 0.  numpy reduces over axis 0 row by row
    when m >= 2, and the propriety guard keeps m >= 4, so the thetas are
    added in the order ``theta_draws.mean(axis=0)`` adds them and
    ``theta_bayes`` is bit for bit the same; the result's
    ``theta_draws`` and ``ess`` are None.  The model variance is the Python
    float ssr / (2 g), g the iteration's standard gamma draw, clamped to
    [1e-12, the largest float]: ssr = 0 gives the floor, an infinite ssr or
    quotient, or g = 0, the ceiling, and a NaN stays NaN.
    The operations and their order are those of a plain loop that
    allocates fresh arrays and draws one iteration at a time, so the draws
    are bit for bit equal.

    Raises ValidationError when m <= p + 2, where the flat prior does not
    yield a proper variance conditional, and NumericalError when the mean
    of the theta or model-variance draws is not finite: the chain's draws
    overflowed.
    """
    X, y, D = data.X, data.y, data.D
    m, p = X.shape
    _check_propriety(m, p)
    sampled = config.fixed_sigma_u2 is None
    n_iter, n_burn, thin = config.n_iter, config.n_burn, config.thin
    # two disjoint streams: the normals, and (2^128 draws ahead) the gammas
    normals = np.random.Generator(np.random.Philox(config.seed)).standard_normal
    gammas = np.random.Generator(np.random.Philox(config.seed).jumped()).standard_gamma

    # beta | rest = P theta + sqrt(s2) R z: P = (X'X)^{-1} X', R = L^{-T}, X'X = LL';
    # theta and z are row vectors here, so the loop multiplies by P' and R'
    xtx = X.T @ X
    Pt = np.linalg.solve(xtx, X.T).T
    Rt = np.linalg.inv(np.linalg.cholesky(xtx))
    Xt = np.ascontiguousarray(X.T)

    beta = y @ Pt
    fit = beta @ Xt  # the regression fit X beta, as a row: one product per iteration
    if sampled:
        sigma2 = float(np.maximum(1e-6, np.mean((y - fit) ** 2) - np.mean(D)))
    else:
        sigma2 = config.fixed_sigma_u2

    # 0 where D_i = 0: the theta step computes theta_i with the rest, then resets it to y_i
    observed = D > 0
    pinned = None if observed.all() else ~observed
    inv_D = np.divide(1.0, D, out=np.zeros(m), where=observed)
    y_over_D = np.divide(y, D, out=np.zeros(m), where=observed)
    # each block holds K iterations' standard_normal(m + p) (normal(m), then
    # normal(p)) and standard_gamma draws; z_p R' is summed over p elementwise
    # and in order, so a row does not depend on the block's length
    K = max(1, min(n_iter, _BLOCK_DRAWS // (m + p)))
    noise = np.empty((K, m + p))
    shape = 0.5 * m - 1.0  # >= 1 under the propriety guard, so gamma draws are positive
    # buffers the loop writes in place of the arrays each step would allocate,
    # and 1/s2, s2 and sqrt(s2) as 0-d arrays, which a ufunc reads faster than floats
    prec, mean, step, resid = (np.empty(m) for _ in range(4))
    beta_xp, inv_s2, s2, root_s2 = np.empty(p), np.empty(()), np.empty(()), np.empty(())
    add, subtract, divide, multiply, sqrt, copyto = np.add, np.subtract, np.divide, np.multiply, np.sqrt, np.copyto

    n_keep = (n_iter - n_burn + thin - 1) // thin
    theta_draws = np.empty((n_keep, m)) if keep_theta_draws else None
    beta_draws = np.empty((n_keep, p))
    sigma2_draws = np.empty(n_keep)
    # a chain that keeps no theta draws adds each block's retained thetas to
    # this sum, first -0.0, which adds nothing (-0.0 + x is x for every x)
    theta_sum = None if keep_theta_draws else np.full(m, -0.0)
    j = 0  # draws retained so far
    for start in range(0, n_iter, K):
        n = min(K, n_iter - start)
        normals(out=noise[:n])
        z_theta = noise[:n, :m]
        z_beta = noise[:n, m, None] * Rt[0]
        for i in range(1, p):
            z_beta += noise[:n, m + i, None] * Rt[i]
        gam = gammas(shape, n).tolist() if sampled else [None] * n  # Python floats, or unread
        variances = []
        # each iteration writes theta over its normals and beta over its
        # z_beta row, each read before it is written
        for theta, beta, g in zip(z_theta, z_beta, gam):
            inv_s2[()], s2[()], root_s2[()] = 1.0 / sigma2, sigma2, math.sqrt(sigma2)
            add(inv_D, inv_s2, prec)
            divide(fit, s2, mean)
            divide(add(y_over_D, mean, mean), prec, mean)
            divide(theta, sqrt(prec, step), step)
            add(mean, step, theta)
            if pinned is not None:
                copyto(theta, y, where=pinned)

            theta.dot(Pt, beta_xp)
            add(beta_xp, multiply(beta, root_s2, beta), beta)
            beta.dot(Xt, fit)

            if sampled:
                subtract(theta, fit, resid)
                ssr = float(resid.dot(resid))
                # at m = 4 about one draw in 2^53 is exactly 0: the quotient's limit, the ceiling
                sigma2 = min(max(ssr / (2.0 * g), _SIGMA2_FLOOR), _SIGMA2_MAX) if g else _SIGMA2_MAX
            variances.append(sigma2)

        # the block's retained rows: every thin-th, from the first whose
        # iteration is n_burn plus a nonnegative multiple of thin
        first = max(n_burn - start, (n_burn - start) % thin)
        kept = slice(first, n, thin)
        retained = variances[kept]
        draws = slice(j, j + len(retained))
        j = draws.stop
        beta_draws[draws], sigma2_draws[draws] = z_beta[kept], retained
        if theta_sum is None:
            theta_draws[draws] = z_theta[kept]
        elif retained:  # row by row, in the order theta_draws.mean(axis=0) adds them
            rows = z_theta[kept]
            rows[0] += theta_sum
            theta_sum = add.reduce(rows, axis=0)

    summary = PosteriorSummary(theta_draws, beta_draws, sigma2_draws, theta_sum)
    if not (np.all(np.isfinite(summary.theta_bayes)) and math.isfinite(summary.sigma_u2_mean)):
        raise NumericalError(
            "the chain's draws overflowed: the mean of its theta or model-variance draws is not finite"
        )
    return summary


# terms that overflow, or a X'WX whose weights all vanish, warn nothing: their node is refused below
@np.errstate(all="ignore")
def _nodes(X, D, T):
    """The terms of nodes ``T`` (n,) in t = log s2 that no response row
    changes: w = 1 / (e^t + D), (n, m); the constant of the log weight,
    t - (log|V| + log|X'WX|) / 2, (n,); and (X'WX)^{-1}, (n, p, p).  A node
    whose terms are not finite, or whose X'WX has no Cholesky factor, gets
    a NaN constant and a zero w and inverse, so that it reaches only the
    rows that read it, and makes them NaN."""
    n, (m, p) = len(T), X.shape
    v = np.exp(T)[:, None] + D
    const = T - 0.5 * np.log(v).sum(axis=1)  # the node's Jacobian ds2 = s2 dt is the leading T
    w = np.reciprocal(v, out=v)
    # X'WX rescaled to unit diagonal, S A S with S = diag(A)^{-1/2}, is
    # factored for the determinant and inverted
    A = (w @ (X[:, :, None] * X[:, None, :]).reshape(m, p * p)).reshape(n, p, p)
    s = 1.0 / np.sqrt(np.diagonal(A, axis1=1, axis2=2))
    A *= s[:, :, None] * s[:, None, :]
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:  # some node is numerically singular: factor each alone
        L = np.array([_cholesky_or_nan(a) for a in A])
    const += np.log(s).sum(axis=1) - np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
    bad = ~np.isfinite(const)  # as is every node with a w that is not finite
    A[bad] = np.eye(p)
    inv = np.linalg.inv(A) * (s[:, :, None] * s[:, None, :])
    const[bad], w[bad], inv[bad] = np.nan, 0.0, 0.0
    return w, const, inv


def _cholesky_or_nan(a):
    """The Cholesky factor of ``a``, or NaN where it has none."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return np.full_like(a, np.nan)


def _row_terms(X, Y, w, inv, const):
    """Log posterior weight (n, R) and GLS fit beta_hat (n, p, R) of the
    rows ``Y`` (R, m) at the n nodes of :func:`_nodes`.  One GEMM of w with
    the products x_k * y and y * y gives every (node, row)'s b = X'Wy and
    y'Wy; then beta_hat = (X'WX)^{-1} b and y'Py = y'Wy - b' beta_hat."""
    (R, m), p = Y.shape, X.shape[1]
    prods = np.empty((p + 1, R, m))
    prods[:p] = X.T[:, None, :]
    prods[p] = Y
    prods *= Y
    G = (w @ prods.reshape(-1, m).T).reshape(-1, p + 1, R)
    beta = inv @ G[:, :p]
    ypy = G[:, p] - (G[:, :p] * beta).sum(axis=1)
    return const[:, None] - 0.5 * ypy, beta


def _window_terms(X, D, Y, T, lo, hi):
    """Per chunk of rows of ``Y``, sorted by window [lo_r, hi_r] centre: the
    row indices, the slice of nodes ``T`` from the lowest lo to the highest
    hi, w there, and :func:`_row_terms` there, with log weight -inf outside
    each row's window.  Every (rows x (p + 1) x max(m, nodes)) temporary
    holds at most ``_CHUNK_DOUBLES`` doubles."""
    (B, m), p = Y.shape, X.shape[1]
    w, const, inv = _nodes(X, D, T)
    rows = max(1, _CHUNK_DOUBLES // ((p + 1) * max(m, len(T))))
    order = np.argsort(lo + hi, kind="stable")
    for k in range(0, B, rows):
        r = order[k : k + rows]
        j = slice(np.searchsorted(T, lo[r].min()), np.searchsorted(T, hi[r].max(), side="right"))
        log_w, beta = _row_terms(X, Y[r], w[j], inv[j], const[j])
        t = T[j, None]
        log_w[(t < lo[r]) | (t > hi[r])] = -np.inf
        yield r, j, w[j], log_w, beta


def _window_means(X, D, Y, T, lo, hi):
    """V^{-1}(y - X beta_hat) of each row of ``Y`` averaged over the nodes
    ``T`` inside its window [lo_r, hi_r] with the posterior weights, (B, m):
    the weights normalised to e_j = exp(log w_j - max) / sum, then one GEMM
    of w with e_j and e_j * beta_hat_j, which gives
    sum_j e_j w_j * y - sum_j e_j w_j * (X beta_hat_j)."""
    (B, m), p = Y.shape, X.shape[1]
    out = np.empty((B, m))
    for r, _, w, log_w, beta in _window_terms(X, D, Y, T, lo, hi):
        e = np.exp(log_w - log_w.max(axis=0))
        e /= e.sum(axis=0)
        n = len(e)
        sums = np.empty((n, p + 1, len(r)))
        sums[:, 0] = e
        np.multiply(e[:, None, :], beta, out=sums[:, 1:])
        sums = (sums.reshape(n, -1).T @ w).reshape(p + 1, len(r), m)
        out[r] = Y[r] * sums[0] - (sums[1:] * X.T[:, None, :]).sum(axis=0)
    return out


def exact_means(data: AreaDataset, Y, fixed_sigma_u2: float | None = None) -> np.ndarray:
    """Exact posterior means of theta under the sampler's model and flat
    prior, one row per row of the responses ``Y``, as a (B, m) array.

    Given s2, theta | y is normal with mean ``y - D * V^{-1}(y - X beta_hat)``,
    where V = diag(s2 + D) and beta_hat is the GLS fit; integrating beta
    out leaves ``p(s2 | y) ∝ |V|^{-1/2} |X'V^{-1}X|^{-1/2} exp(-y'Py/2)``
    (Morris 1983; Datta, Rao & Smith 2005).  The mean is the integral of
    the first against the second, taken in t = log s2.

    The range of t follows the weight's two tails, which are known: below
    the harmonic scale 1 / sum(1/D_i) of the sampling variances the log
    weight falls like t, and above both the largest D_i and the residual
    scale SSR / (m - p - 2) of row r it falls like (m - p - 2) t / 2.  Row
    r's range runs from ``low``, 45 below the first, to ``high_r``, 45 +
    76 / (m - p - 2) above the second (capped where e^t overflows).  All
    rows share one lattice of nodes, so each node's w = 1 / (e^t + D),
    log|V|, X'V^{-1}X, its Cholesky factor and its inverse are computed
    once for the batch, and the per-row terms are GEMMs over the nodes.
    A coarse lattice from ``low``, spaced (min_r high_r - low) / 47 and
    running to max_r high_r, brackets each row's window from the nodes in
    its own range: the nodes within 38 of its largest log weight, plus one
    node either side.  A row whose window reaches an end of its range is
    NaN, never truncated.  A fine lattice spaced (narrowest window) / 199
    covers every window, and each row's mean is the weighted average over
    the fine nodes inside its window, its weights normalised to sum 1.  Every
    row so gets at least 199 intervals across its window; a row's value
    depends on the rest of its batch only through the lattice spacing.
    The coarse lattice has 48 + 47 * Δ / (min_r high_r - low) nodes, Δ the
    spread of high_r, with min_r high_r - low >= 90; the fine lattice has
    about 199 * U / W, U the width of the union of the windows and W the
    narrowest.  Rows of one model, such as bootstrap replicates, have
    nearby windows, so both stay near 48 and 200; rows whose residual
    scales differ by a factor k widen U by about 2 log k.  Before the
    quadrature each row is moved by a fitted value X c, which changes
    neither y'Py nor y - X beta_hat: c fits the D = 0 areas exactly and
    the others by least squares within what that leaves free, so that
    y'Py = y'V^{-1}y - b' beta_hat does not cancel.  SSR is the moved
    row's sum of squares: the least-squares SSR when every D > 0, and
    with D = 0 areas that of the fit that pins them, never smaller, so a
    range can only be wider.  Each lattice's node terms are computed
    once; the rows, sorted by window centre and written back in input
    order, are taken in chunks, each evaluated only on the nodes from its
    lowest window start to its highest window end.  Row chunks keep every
    temporary within ``_CHUNK_DOUBLES`` doubles; the (nodes x m) node
    terms are not chunked.

    Areas with D_i = 0 get theta_i = y_i exactly.  With ``fixed_sigma_u2``
    each row is the conditional mean at that variance.  Raises
    ValidationError when m <= p + 2, where the posterior is improper.
    """
    X = data.X
    m, p = X.shape
    _check_propriety(m, p)
    Y = _matrix("responses", Y)
    if Y.shape[0] == 0 or Y.shape[1] != m:
        raise ValidationError(f"responses have shape {Y.shape}, expected (B, {m}) with B >= 1")
    s2 = None if fixed_sigma_u2 is None else _fixed_variance(fixed_sigma_u2)
    D = data.D
    if not np.any(D > 0):
        return Y.copy()
    # each row moved by X c (see the docstring), X rotated so the directions
    # the D = 0 areas pin as s2 -> 0 are its first r coordinates, which the
    # diagonal rescaling balances; a rotation (I with no D = 0 area) changes
    # no fitted value and no determinant
    zero = D == 0
    X = X @ np.linalg.svd(X[zero])[2].T
    r = np.linalg.matrix_rank(X[zero])
    c = np.linalg.lstsq(X[zero, :r], Y[:, zero].T, rcond=None)[0]
    rest = Y[:, ~zero].T - X[~zero, :r] @ c
    c = np.vstack([c, np.linalg.lstsq(X[~zero, r:], rest, rcond=None)[0]])
    moved = Y - (X @ c).T
    if s2 is not None:  # one node, which every row reads
        t = np.full(len(Y), np.log(s2))
        return Y - D * _window_means(X, D, moved, t[:1], t, t)

    # coarse lattice from the two tails (see the docstring)
    decay = m - p - 2
    ssr = np.sum(moved**2, axis=1)
    low = np.log(1.0 / np.sum(1.0 / D[D > 0])) - 45.0
    high = np.log(np.maximum(ssr / decay, D.max())) + 45.0 + 76.0 / decay
    high = np.minimum(high, np.log(_SIGMA2_MAX))
    step = (high.min() - low) / (_COARSE_NODES - 1)
    ends = np.floor((high - low) / step + 1e-9).astype(int)  # each row's last coarse node
    T = low + step * np.arange(ends.max() + 1)
    coarse = np.full((len(Y), len(T)), -np.inf)  # -inf outside each row's own range
    for r, j, _, log_w, _ in _window_terms(X, D, moved, T, np.full(len(Y), low), T[ends]):
        coarse[r, j] = log_w.T
    own = np.arange(len(T)) <= ends[:, None]
    finite = np.all(np.isfinite(coarse) | ~own, axis=1)
    kept = coarse >= coarse.max(axis=1, keepdims=True) - _LOG_WEIGHT_CUT
    first = np.argmax(kept, axis=1)
    last = len(T) - 1 - np.argmax(kept[:, ::-1], axis=1)
    ok = (first > 0) & (last < ends) & finite
    out = Y.copy()
    out[~ok] = np.nan
    if not np.any(ok):
        return out
    lo, hi = T[first[ok] - 1], T[last[ok] + 1]
    h = np.min(hi - lo) / (_FINE_NODES - 1)
    fine = lo.min() + h * np.arange(np.ceil((hi.max() - lo.min()) / h) + 1)
    out[ok] -= D * _window_means(X, D, moved[ok], fine, lo, hi)
    return out
