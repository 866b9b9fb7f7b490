"""Independent oracles used across the test suite.

These deliberately avoid the library's solution paths: the constrained
oracle assembles and LU-solves the full bordered KKT system, the
unconstrained oracle runs a generic second-order optimizer, and the
quadratic-form oracle evaluates the similarity double sum directly.  The
Gibbs reference chain solves with the Cholesky factor of X'X on every
iteration, the reference ESS handles one area at a time, and the
reference bootstrap replicate runs one full chain per replicate.  The
reference held-out solve refactors the zero-weight system for every
held-out area and borders it with the constraints.
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
    """A ``bootstrap_mse`` batch callback that calls ``estimate(y_star, seed)``
    one replicate at a time.  A replicate whose call raises ValidationError
    or NumericalError is a NaN row; any other exception propagates."""
    from smallarea import NumericalError, ValidationError

    def batch(y_star, seeds):
        out = np.full(np.shape(y_star), np.nan)
        for b, (y, seed) in enumerate(zip(y_star, seeds)):
            try:
                out[b] = estimate(y, seed)
            except (ValidationError, NumericalError):
                pass
        return out

    return batch


def count_factorizations(monkeypatch):
    """Record every Cholesky factorization the estimators make: returns the
    list that each ``smallarea.estimators.cho_factor`` call appends to."""
    import smallarea.estimators

    real = smallarea.estimators.cho_factor
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(smallarea.estimators, "cho_factor", counted)
    return calls


def reference_replicate(data, phi, omega, gamma, constraints, gibbs, gamma_grid=None):
    """One bootstrap replicate the way the pipeline ran it before its chains
    ran in lock step: a full ``gibbs_fit`` on the synthetic responses, then
    (with ``gamma_grid``) cross-validation, then the constrained estimate."""
    from dataclasses import replace

    from smallarea import benchmarked_estimate, cross_validate, gibbs_fit, smoothed_estimate

    def run(y_star, seed):
        theta = gibbs_fit(replace(data, y=y_star), replace(gibbs, seed=seed)).theta_bayes
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
