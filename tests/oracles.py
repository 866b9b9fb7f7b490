"""Independent oracles used across the test suite.

These deliberately avoid the library's solution paths: the constrained
oracle assembles and LU-solves the full bordered KKT system, the
unconstrained oracle runs a generic second-order optimizer, and the
quadratic-form oracle evaluates the similarity double sum directly.  The
Gibbs reference chain solves with the Cholesky factor of X'X on every
iteration, and the reference Gibbs loop is the sampler's loop before its
buffers were reused, which the sampler must match bit for bit.  The
reference ESS handles one area at a time, the exact posterior mean
integrates over the model variance with adaptive quadrature and an
explicit projection matrix, and the reference bootstrap replicate takes
that mean one replicate at a time.  The reference held-out solve
refactors the zero-weight system for every held-out area and borders it
with the constraints.  The condition numbers that bound the solver's
rounding error come from the generalized eigenvalues of the pencil
(Sigma, Phi) and an LU solve, not from the solver's decomposition.
"""

import numpy as np
from scipy.optimize import minimize


def double_sum_penalty(delta, q):
    """Explicit sum over ordered pairs of (d_i - d_j)^2 q_ij."""
    total = 0.0
    m = len(delta)
    for i in range(m):
        for j in range(m):
            total += (delta[i] - delta[j]) ** 2 * q[i, j]
    return total


def kkt_solve(theta, phi, omega, gamma, M=None, t=None):
    """Equality-constrained quadratic minimizer via one bordered LU solve."""
    m = len(theta)
    H = 2.0 * (np.diag(phi) + gamma * omega)
    g = 2.0 * (phi * theta)
    if M is None:
        return np.linalg.solve(H, g)
    k = M.shape[0]
    kkt = np.zeros((m + k, m + k))
    kkt[:m, :m] = H
    kkt[:m, m:] = M.T
    kkt[m:, :m] = M
    rhs = np.concatenate((g, np.atleast_1d(t)))
    return np.linalg.solve(kkt, rhs)[:m]


def condition_numbers(phi, omega, gamma, M=None):
    """The condition numbers that bound the estimators' rounding error,
    each from a route of its own: kappa of the scaled system
    Phi^{-1/2} Sigma Phi^{-1/2} from LAPACK's generalized symmetric
    eigensolver on the pencil (Sigma, Phi), infinite when Sigma is not
    positive definite, and the 2-norm condition number of the Gram matrix
    M Sigma^{-1} M' from an LU solve (1 without constraints)."""
    from scipy.linalg import eigh

    sigma = np.diag(phi) + gamma * np.asarray(omega)
    ev = eigh(sigma, np.diag(phi), eigvals_only=True)
    kappa = ev[-1] / ev[0] if ev[0] > 0 else np.inf
    gram = 1.0 if M is None else np.linalg.cond(M @ np.linalg.solve(sigma, M.T))
    return kappa, gram


def quad_minimize(theta, phi, omega, gamma, x0=None):
    """Generic unconstrained minimizer of the penalized objective, run to
    tight tolerance with exact gradient and Hessian."""
    theta = np.asarray(theta, dtype=float)
    H = 2.0 * (np.diag(phi) + gamma * omega)

    def fun(d):
        r = d - theta
        return float(r @ (phi * r) + gamma * (d @ omega @ d))

    def jac(d):
        return 2.0 * (phi * (d - theta)) + 2.0 * gamma * (omega @ d)

    res = minimize(
        fun,
        theta if x0 is None else x0,
        method="trust-exact",
        jac=jac,
        hess=lambda d: H,
        options={"gtol": 1e-12},
    )
    return res.x


def dropped_term_minimize(theta, phi, omega, gamma, index):
    """Held-out oracle: minimize with area ``index``'s loss term removed."""
    phi0 = np.asarray(phi, dtype=float).copy()
    phi0[index] = 0.0
    return quad_minimize(theta, phi0, omega, gamma)


def random_similarity(rng, m, density=0.6):
    """Random symmetric nonnegative similarity matrix with zero diagonal."""
    upper = rng.uniform(0.0, 2.0, size=(m, m)) * (rng.random((m, m)) < density)
    q = np.triu(upper, k=1)
    return q + q.T


def random_instance(rng, m):
    """Random (theta, phi, omega) triple on a random similarity graph."""
    from smallarea import build_omega, SimilaritySpec

    q = random_similarity(rng, m)
    omega = build_omega(SimilaritySpec.from_matrix(q)).omega
    theta = rng.normal(0.0, 2.0, size=m)
    phi = rng.uniform(0.5, 3.0, size=m)
    return theta, phi, omega


def random_connected_instance(rng, m):
    """Like random_instance but on a graph with a guaranteed spanning path,
    so no area is isolated."""
    from smallarea import build_omega, SimilaritySpec

    q = random_similarity(rng, m, density=0.3)
    for i in range(m - 1):
        q[i, i + 1] = q[i + 1, i] = max(q[i, i + 1], rng.uniform(0.5, 1.5))
    omega = build_omega(SimilaritySpec.from_matrix(q)).omega
    theta = rng.normal(0.0, 2.0, size=m)
    phi = rng.uniform(0.5, 3.0, size=m)
    return theta, phi, omega


def constrained_quad_minimize(theta, phi, omega, gamma, M, t):
    """Generic constrained oracle: eliminate the constraints with a
    null-space parametrization, then run the second-order optimizer in the
    reduced coordinates."""
    from scipy.linalg import null_space

    theta = np.asarray(theta, dtype=float)
    M = np.atleast_2d(np.asarray(M, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    d0, *_ = np.linalg.lstsq(M, t, rcond=None)
    Z = null_space(M)
    H = 2.0 * Z.T @ (np.diag(phi) + gamma * omega) @ Z

    def fun(v):
        d = d0 + Z @ v
        r = d - theta
        return float(r @ (phi * r) + gamma * (d @ omega @ d))

    def jac(v):
        d = d0 + Z @ v
        return Z.T @ (2.0 * (phi * (d - theta)) + 2.0 * gamma * (omega @ d))

    res = minimize(
        fun,
        np.zeros(Z.shape[1]),
        method="trust-exact",
        jac=jac,
        hess=lambda v: H,
        options={"gtol": 1e-12},
    )
    return d0 + Z @ res.x


def reference_gibbs_draws(data, config):
    """The Gibbs chain of ``fay_herriot.gibbs_fit`` written as one
    triangular solve per step: the same conditionals and the same random
    streams, drawn one iteration at a time.  Each iteration takes normal(m)
    then normal(p) from ``Philox(seed)`` and, when the variance is sampled,
    one standard gamma from ``Philox(seed).jumped()``, used or not.
    Returns the retained theta, beta and model-variance draws."""
    from scipy.linalg import cho_solve, solve_triangular

    X, y, D = data.X, data.y, data.D
    m, p = X.shape
    rng = np.random.Generator(np.random.Philox(config.seed))
    gamma_rng = np.random.Generator(np.random.Philox(config.seed).jumped())
    chol_lower = np.linalg.cholesky(X.T @ X)
    xtx_cho = (chol_lower, True)
    beta = cho_solve(xtx_cho, X.T @ y)
    if config.fixed_sigma_u2 is not None:
        sigma2 = float(config.fixed_sigma_u2)
    else:
        sigma2 = max(1e-6, float(np.mean((y - X @ beta) ** 2) - np.mean(D)))
    observed = D > 0
    thetas, betas, sigma2s = [], [], []
    for it in range(config.n_iter):
        fit = X @ beta
        z = rng.standard_normal(m)
        theta = y.copy()
        if np.any(observed):
            prec = 1.0 / D[observed] + 1.0 / sigma2
            mean = (y[observed] / D[observed] + fit[observed] / sigma2) / prec
            theta[observed] = mean + z[observed] / np.sqrt(prec)
        beta = cho_solve(xtx_cho, X.T @ theta) + np.sqrt(sigma2) * solve_triangular(
            chol_lower.T, rng.standard_normal(p), lower=False
        )
        if config.fixed_sigma_u2 is None:
            ssr = float(np.sum((theta - X @ beta) ** 2))
            g = gamma_rng.standard_gamma(0.5 * m - 1.0)
            sigma2 = ssr / (2.0 * g)
            sigma2 = float(min(max(sigma2, 1e-12), np.finfo(float).max))
        if it >= config.n_burn and (it - config.n_burn) % config.thin == 0:
            thetas.append(theta)
            betas.append(beta)
            sigma2s.append(sigma2)
    return np.array(thetas), np.array(betas), np.array(sigma2s)


def reference_gibbs_loop(data, config):
    """The loop of ``fay_herriot.gibbs_fit`` written plainly: fresh arrays
    every iteration, one ``standard_normal(m + p)`` and (when the variance
    is sampled) one ``standard_gamma`` g per iteration, a numpy-scalar
    model variance ssr / (2 g) and one ``np.errstate`` per variance update.
    It makes the same products as the chain: one fit ``beta @ Xt`` per
    iteration with a C-contiguous ``Xt``, read by the residual and by the
    next theta step; the residual sum of squares as one ``np.dot``; and
    beta's noise term as the elementwise sum ``(z_p[:, None] * Rt).sum(axis=0)``.
    Returns the retained theta, beta and model-variance draws, which
    ``gibbs_fit`` must reproduce bit for bit."""
    X, y, D = data.X, data.y, data.D
    m, p = X.shape
    sampled = config.fixed_sigma_u2 is None
    rng = np.random.Generator(np.random.Philox(config.seed))
    gamma_rng = np.random.Generator(np.random.Philox(config.seed).jumped())

    xtx = X.T @ X
    Pt = np.linalg.solve(xtx, X.T).T
    Rt = np.linalg.inv(np.linalg.cholesky(xtx))
    Xt = np.ascontiguousarray(X.T)

    beta = y @ Pt
    fit = beta @ Xt
    if sampled:
        sigma2 = np.maximum(1e-6, np.mean((y - fit) ** 2) - np.mean(D))
    else:
        sigma2 = np.float64(config.fixed_sigma_u2)

    observed = D > 0
    theta = y.copy()
    thetas, betas, sigma2s = [], [], []
    for it in range(config.n_iter):
        z = rng.standard_normal(m + p)
        prec = 1.0 / D[observed] + 1.0 / sigma2
        mean = (y[observed] / D[observed] + fit[observed] / sigma2) / prec
        theta = theta.copy()
        theta[observed] = mean + z[:m][observed] / np.sqrt(prec)

        beta = theta @ Pt + np.sqrt(sigma2) * (z[m:, None] * Rt).sum(axis=0)
        fit = beta @ Xt

        if sampled:
            resid = theta - fit
            ssr = np.dot(resid, resid)
            with np.errstate(over="ignore"):
                sigma2 = ssr / (2.0 * gamma_rng.standard_gamma(0.5 * m - 1.0))
            sigma2 = np.minimum(np.maximum(sigma2, 1e-12), np.finfo(float).max)

        if it >= config.n_burn and (it - config.n_burn) % config.thin == 0:
            thetas.append(theta)
            betas.append(beta)
            sigma2s.append(sigma2)
    return np.array(thetas), np.array(betas), np.array(sigma2s)


def previous_gibbs_loop(data, config):
    """The loop of ``fay_herriot.gibbs_fit`` as it was before the fused
    chain step, kept verbatim: fresh arrays every iteration, a numpy-scalar
    model variance and one ``np.errstate`` per variance update, with two
    products of beta per iteration (``beta @ Xt_obs`` for theta's mean,
    ``beta @ Xt`` for the residual) and beta's noise term as ``z_p @ Rt``.
    It reads ``fay_herriot._BLOCK_DRAWS`` when called, so a test that
    patches the block size patches both loops.  Returns the retained theta,
    beta and model-variance draws; ``gibbs_fit`` differs from them by
    roundoff only."""
    from smallarea import fay_herriot

    X, y, D = data.X, data.y, data.D
    m, p = X.shape
    sampled = config.fixed_sigma_u2 is None
    normals = np.random.Generator(np.random.Philox(config.seed)).standard_normal
    gammas = np.random.Generator(np.random.Philox(config.seed).jumped()).standard_gamma

    xtx = X.T @ X
    Pt = np.linalg.solve(xtx, X.T).T
    Rt = np.linalg.inv(np.linalg.cholesky(xtx))

    beta = y @ Pt
    if sampled:
        sigma2 = np.maximum(1e-6, np.mean((y - beta @ X.T) ** 2) - np.mean(D))
    else:
        sigma2 = np.float64(config.fixed_sigma_u2)

    observed = D > 0
    cols = slice(0, m) if np.all(observed) else np.flatnonzero(observed)
    theta = y.copy()
    Xt = np.ascontiguousarray(X.T)
    Xt_obs = X[cols].T
    inv_D = 1.0 / D[cols]
    y_over_D = y[cols] / D[cols]
    K = max(1, min(config.n_iter, fay_herriot._BLOCK_DRAWS // (m + p)))
    noise = np.empty((K, m + p))
    gam = np.empty(K)
    shape = 0.5 * m - 1.0

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
            with np.errstate(divide="ignore", over="ignore"):
                sigma2 = 1.0 / ((2.0 / ssr) * gam[k])
            sigma2 = np.minimum(np.maximum(sigma2, 1e-12), np.finfo(float).max)

        if it >= config.n_burn and (it - config.n_burn) % config.thin == 0:
            j = (it - config.n_burn) // config.thin
            theta_draws[j], beta_draws[j], sigma2_draws[j] = theta, beta, sigma2
    return theta_draws, beta_draws, sigma2_draws


def reference_ess(draws):
    """ESS of each column of an (n, m) chain, one column at a time: the
    initial-positive-sequence rule on paired autocorrelations, with the
    pairs summed in a loop until the first nonpositive one."""

    def one(x):
        n = x.shape[0]
        if n < 4:
            return float(n)
        xc = x - x.mean()
        c0 = float(xc @ xc)
        if c0 == 0.0:
            return float(n)
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

    return np.array([one(draws[:, j]) for j in range(draws.shape[1])])


def per_replicate(estimate):
    """A ``bootstrap_mse`` batch callback that calls ``estimate(y_star)``
    one replicate at a time.  A replicate whose call raises ValidationError
    or NumericalError is a NaN row; any other exception propagates."""
    from smallarea import NumericalError, ValidationError

    def batch(y_star):
        out = np.full(np.shape(y_star), np.nan)
        for b, y in enumerate(y_star):
            try:
                out[b] = estimate(y)
            except (ValidationError, NumericalError):
                pass
        return out

    return batch


def count_eigendecompositions(monkeypatch):
    """Record every eigendecomposition made while the test runs: returns
    the list that each ``np.linalg.eigh`` call appends its matrix's shape
    to.  The estimators' solver makes one, on its first solve."""
    real = np.linalg.eigh
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def reference_replicate(data, phi, omega, gamma, constraints, gamma_grid=None, fixed_sigma_u2=None):
    """One bootstrap replicate computed alone: the exact posterior mean of
    the synthetic responses by :func:`exact_posterior_mean` (with
    ``fixed_sigma_u2``, by :func:`known_variance_posterior_mean`), then
    (with ``gamma_grid``) cross-validation, then the constrained estimate."""
    from smallarea import benchmarked_estimate, cross_validate, smoothed_estimate

    def run(y_star):
        if fixed_sigma_u2 is None:
            theta = exact_posterior_mean(y_star, data.D, data.X)
        else:
            theta = known_variance_posterior_mean(y_star, data.D, data.X, fixed_sigma_u2)
        g = gamma
        if gamma_grid is not None:
            g = cross_validate(theta, phi, omega, gamma_grid, constraints).gamma_hat
        if constraints is not None:
            return benchmarked_estimate(theta, phi, omega, g, constraints).values
        return smoothed_estimate(theta, phi, omega, g).values

    return run


def reference_loo_solution(theta_bayes, phi, omega, gamma, index, constraints=None):
    """``selection.loo_solution`` as it was before held-out fits came from
    the full fit: one Cholesky solve of the zero-weight system, or with
    constraints one bordered KKT solve behind an SVD condition check."""
    from scipy.linalg import cho_factor, cho_solve, LinAlgError

    from smallarea import NumericalError, ValidationError
    from smallarea.estimators import _CONDITION_LIMIT, _problem

    theta, solver, g = _problem(theta_bayes, phi, omega, gamma, constraints)
    p, w, m = solver.phi, solver.omega, theta.shape[0]
    if g <= 0:
        raise ValidationError("held-out solves require gamma > 0")
    if not (0 <= index < m):
        raise ValidationError(f"area index {index} out of range [0, {m})")

    p_held = p.copy()
    p_held[index] = 0.0
    sigma = g * w
    sigma[np.diag_indices_from(sigma)] += p_held
    rhs = p_held * theta

    if constraints is None:
        try:
            solution = cho_solve(cho_factor(sigma, lower=True), rhs)
        except LinAlgError:
            raise NumericalError(
                f"held-out area {index} is unidentified at gamma={g:g}"
            ) from None
    else:
        k = constraints.n_constraints
        kkt = np.zeros((m + k, m + k))
        kkt[:m, :m] = sigma
        kkt[:m, m:] = constraints.M.T
        kkt[m:, :m] = constraints.M
        cond = np.linalg.cond(kkt)
        if not np.isfinite(cond) or cond > _CONDITION_LIMIT:
            raise NumericalError(
                f"held-out area {index} is unidentified at gamma={g:g}"
            )
        solution = np.linalg.solve(kkt, np.concatenate((rhs, constraints.t)))[:m]
    if not np.all(np.isfinite(solution)):
        raise NumericalError(f"held-out area {index} is unidentified at gamma={g:g}")
    return solution


def known_variance_posterior_mean(y, D, X, sigma_u2):
    """Closed-form posterior mean when the model variance is known: the
    shrinkage blend of y and the GLS regression fit."""
    V = D + sigma_u2
    beta_gls = np.linalg.solve(X.T @ (X / V[:, None]), X.T @ (y / V))
    g = sigma_u2 / (sigma_u2 + D)
    return g * y + (1.0 - g) * (X @ beta_gls)


def exact_posterior_mean(y, D, X):
    """E[theta | y] of the area model under the flat prior on (beta, s2),
    by adaptive quadrature over s2 in (0, inf) with the P matrix formed
    explicitly: ``p(s2 | y) ∝ |V|^{-1/2} |X'V^{-1}X|^{-1/2} exp(-y'Py/2)``
    with V = diag(s2 + D) and P = V^{-1} - V^{-1}X(X'V^{-1}X)^{-1}X'V^{-1},
    and ``E[theta | s2, y] = y - D * (P y)``.  Each component of the mean
    is its own ``scipy.integrate.quad`` over s2 = s u, split at u = 1, where
    s is the mode of the weight in log s2; the integrand's values are
    shared between the quad calls."""
    from scipy.integrate import quad
    from scipy.optimize import minimize_scalar

    y, D, X = (np.asarray(a, dtype=float) for a in (y, D, X))
    cache = {}

    def parts(s2):
        if s2 not in cache:
            v_inv = np.diag(1.0 / (s2 + D))
            A = X.T @ v_inv @ X
            P = v_inv - v_inv @ X @ np.linalg.solve(A, X.T @ v_inv)
            Py = P @ y
            log_f = -0.5 * (np.sum(np.log(s2 + D)) + np.linalg.slogdet(A)[1] + y @ Py)
            cache[s2] = (log_f, Py)
        return cache[s2]

    positive = D[D > 0]
    low = np.log(positive.min() if positive.size else 1.0) - 40.0
    high = np.log(max(np.var(y), D.max(), 1e-300)) + 40.0
    fit = minimize_scalar(lambda t: -(parts(np.exp(t))[0] + t), bounds=(low, high), method="bounded",
                          options={"xatol": 1e-6})
    s = float(np.exp(fit.x))
    log_ref = parts(s)[0]

    def integral(g, **tolerance):
        return sum(
            quad(lambda u: np.exp(parts(s * u)[0] - log_ref) * g(s * u), a, b, limit=200, **tolerance)[0]
            for a, b in ((0.0, 1.0), (1.0, np.inf))
        )

    Z = integral(lambda s2: 1.0, epsabs=0.0, epsrel=1e-12)
    # an absolute error of tol * Z on the integral of (P y)_i moves the mean
    # by at most 1e-11 (1 + |y|_inf)
    tol = 1e-11 * (1.0 + np.abs(y).max()) / max(D.max(), 1e-300)
    mean = y.copy()
    for i in np.flatnonzero(D > 0):
        Py_i = integral(lambda s2: parts(s2)[1][i], epsabs=tol * Z, epsrel=1e-12)
        mean[i] -= D[i] * Py_i / Z
    return mean
