"""Closed-form smoothed and benchmarked estimators.

Given unconstrained Bayes estimates theta, positive loss weights phi and a
smoothness penalty matrix omega, the smoothed estimator minimizes

    (d - theta)' Phi (d - theta) + gamma d' omega d

and the benchmarked estimator minimizes the same objective subject to
linear constraints M d = t.  Both have closed forms from one private
solver, built once for a (phi, omega, constraints): it factors the
symmetric positive-definite Sigma = Phi + gamma * omega once per gamma,
rejects an ill-conditioned Sigma as a NumericalError, keeps the last
gamma's factor for every later solve at that gamma and also gives the
hat-matrix column behind each held-out fit of ``selection``.  A caller
that solves many times, such as the pipeline's estimates, cross-validation
and bootstrap, passes the solver in place of omega; a call with a plain
omega builds a one-off solver.
:func:`benchmarked_estimate` is the one constrained estimate: the single
weighted-mean benchmark and the unit-level (two-tier) benchmark are calls
to it, and multivariate problems reduce to it through block stacking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag, cho_factor, cho_solve, LinAlgError
from scipy.linalg.lapack import dpocon

from .exceptions import NumericalError, ValidationError
from .similarity import SmoothnessMatrix

__all__ = [
    "BenchmarkedEstimate",
    "ConstraintSet",
    "LossWeights",
    "SmoothedEstimate",
    "StackedProblem",
    "UnitLevelLayout",
    "benchmarked_estimate",
    "benchmarked_estimate_single",
    "penalized_objective",
    "smoothed_estimate",
    "stack_multivariate",
    "unit_level_benchmarked",
    "unit_level_smoothed",
]

# Sigma, constraint Gram matrices and held-out fits (through 1 - A_ii)
# with condition numbers beyond this are treated as singular.
_CONDITION_LIMIT = 1e12

# Benchmarked results must satisfy ||M d - t||_inf <= _RESIDUAL_TOL * (1 + ||t||_inf).
_RESIDUAL_TOL = 1e-8


def _vector(x, name: str, size: int | None = None) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {v.shape}")
    if size is not None and v.shape[0] != size:
        raise ValidationError(f"{name} has length {v.shape[0]}, expected {size}")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{name} contains non-finite entries")
    return v


def _phi_vector(phi, size: int | None = None) -> np.ndarray:
    v = _vector(phi.phi if isinstance(phi, LossWeights) else phi, "phi", size)
    if np.any(v <= 0):
        raise ValidationError("loss weights must be strictly positive")
    return v


def _omega_matrix(omega, size: int) -> np.ndarray:
    w = omega.omega if isinstance(omega, SmoothnessMatrix) else np.asarray(omega, dtype=float)
    if w.ndim != 2 or w.shape != (size, size):
        raise ValidationError(f"penalty matrix has shape {w.shape}, expected ({size}, {size})")
    if not np.all(np.isfinite(w)):
        raise ValidationError("penalty matrix contains non-finite entries")
    if not np.array_equal(w, w.T):
        raise ValidationError("penalty matrix must be symmetric")
    return w


def _gamma_value(gamma) -> float:
    g = float(gamma)
    if not np.isfinite(g) or g < 0:
        raise ValidationError(f"gamma must be a finite nonnegative real, got {gamma!r}")
    return g


def _same_constraints(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return a is b or (np.array_equal(a.M, b.M) and np.array_equal(a.t, b.t))


def _problem(theta_bayes, phi, omega, gamma=0.0, constraints=None, size: int | None = None):
    """Validated theta, the Sigma solver and gamma of one smoothing problem.

    ``size`` fixes the number of areas; otherwise theta's length does.
    ``omega`` is a penalty matrix, validated into a one-off solver together
    with ``phi`` and ``constraints``, or a :class:`_SigmaSolver` built
    earlier, whose omega is not checked again; ``phi`` and any
    ``constraints`` must then equal the ones it was built with.
    """
    theta = _vector(theta_bayes, "theta_bayes", size)
    m = theta.shape[0]
    if isinstance(omega, _SigmaSolver):
        solver = omega
        if not np.array_equal(_phi_vector(phi, m), solver.phi):
            raise ValidationError("phi differs from the loss weights the solver was built with")
        if constraints is not None and not _same_constraints(constraints, solver.constraints):
            raise ValidationError("constraints differ from those the solver was built with")
    else:
        solver = _SigmaSolver(phi, omega, constraints, m)
    return theta, solver, _gamma_value(gamma)


class _SigmaSolver:
    """Solves with Sigma(gamma) = Phi + gamma * omega for one validated
    (phi, omega, constraints).

    Only theta and gamma vary between the solves of a run, so the solver
    keeps what the last gamma it was asked about needed: the Cholesky
    factor of Sigma and, from the first constrained solve on,
    Sigma^{-1} M' and the condition-checked Gram matrix M Sigma^{-1} M', or
    the NumericalError message either step raised.  Another solve at that
    gamma costs two triangular solves plus the k x k correction.  A solver
    lives as long as the caller that built it holds it.
    """

    def __init__(self, phi, omega, constraints=None, size: int | None = None):
        self.phi = _phi_vector(phi, size)
        m = self.phi.shape[0]
        self.omega = _omega_matrix(omega, m)
        if constraints is not None and constraints.n_parameters != m:
            raise ValidationError(
                f"constraints are over {constraints.n_parameters} parameters, expected {m}"
            )
        self.constraints = constraints
        self._gamma = None
        self._cho = self._gram = None  # factor / (Sigma^{-1} M', Gram), or an error message

    def _factor(self, g: float):
        if g != self._gamma:
            self._gamma, self._cho, self._gram = g, None, None  # drop the old factor first
            self._cho = self._cholesky(g)
        if isinstance(self._cho, str):
            raise NumericalError(self._cho)
        return self._cho

    def _cholesky(self, g: float):
        sigma = g * self.omega
        sigma[np.diag_indices_from(sigma)] += self.phi
        try:
            cho = cho_factor(sigma, lower=True)
            norm = np.abs(sigma, out=sigma).sum(axis=0).max()  # sigma is not needed again
            rcond = dpocon(cho[0], norm, uplo="L")[0]
        except LinAlgError:  # not positive definite: cannot happen for phi > 0, psd omega
            rcond = 0.0
        if not rcond >= 1.0 / _CONDITION_LIMIT:
            return f"smoothing system is singular or ill-conditioned at gamma={g:g}"
        return cho

    def _constrained(self, g: float):
        cho = self._factor(g)
        if self._gram is None:
            sinv_mt = cho_solve(cho, self.constraints.M.T, check_finite=False)
            gram = self.constraints.M @ sinv_mt
            gram = 0.5 * (gram + gram.T)
            if np.linalg.cond(gram) <= _CONDITION_LIMIT:
                self._gram = (sinv_mt, gram)
            else:
                self._gram = "degenerate or redundant constraints"
        if isinstance(self._gram, str):
            raise NumericalError(self._gram)
        return self._gram

    def solve(self, theta, g: float, constrained: bool = False, column=None):
        """Minimizer d of the penalized objective at gamma ``g``, under
        M d = t when ``constrained``.  An ill-conditioned Sigma or Gram
        matrix is a NumericalError.  The fit is linear, d = A theta + c;
        ``column=i`` returns (d, A e_i), A e_i solved with right-hand side
        phi_i e_i and target 0."""
        cho = self._factor(g)
        p = self.phi
        rhs = p * theta
        if column is not None:
            rhs = np.column_stack((rhs, np.where(np.arange(p.size) == column, p, 0.0)))
        values = cho_solve(cho, rhs, check_finite=False)  # a factor that passed pocon is finite
        if constrained:
            sinv_mt, gram = self._constrained(g)
            M, t = self.constraints.M, self.constraints.t
            if column is not None:
                t = np.column_stack((t, np.zeros_like(t)))
            values = values + sinv_mt @ np.linalg.solve(gram, t - M @ values)
        return values if column is None else tuple(values.T)


@dataclass(frozen=True)
class LossWeights:
    """Strictly positive per-area loss weights (the diagonal of Phi)."""

    phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi", _phi_vector(self.phi))

    def __len__(self) -> int:
        return self.phi.shape[0]


@dataclass(frozen=True)
class ConstraintSet:
    """Linear benchmark constraints M d = t with M of full row rank."""

    M: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        if M.ndim != 2:
            raise ValidationError(f"constraint matrix must be 2-d, got shape {M.shape}")
        k, m = M.shape
        if k < 1:
            raise ValidationError("at least one constraint row is required")
        if k > m:
            raise ValidationError(
                f"{k} constraints on {m} parameters cannot have full row rank"
            )
        if not np.all(np.isfinite(M)):
            raise ValidationError("constraint matrix contains non-finite entries")
        t = _vector(self.t, "t", k)
        s = np.linalg.svd(M, compute_uv=False)
        if s[-1] <= s[0] * 1e-12 or s[0] == 0.0:
            raise ValidationError("constraint matrix is rank deficient")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "t", t)

    @property
    def n_constraints(self) -> int:
        return self.M.shape[0]

    @property
    def n_parameters(self) -> int:
        return self.M.shape[1]


@dataclass(frozen=True)
class UnitLevelLayout:
    """Shape and weights of a two-tier problem: areas partitioned into units.

    ``units_per_area[i]`` units belong to area i, in stacking order; unit
    weights ``xi`` run over all units in that same order.  ``gamma_area``
    and ``gamma_unit`` are the two smoothing factors.
    """

    units_per_area: tuple[int, ...]
    phi: np.ndarray
    xi: np.ndarray
    gamma_area: float
    gamma_unit: float

    def __post_init__(self):
        counts = tuple(int(n) for n in self.units_per_area)
        if len(counts) == 0 or any(n < 1 for n in counts):
            raise ValidationError("every area must contain at least one unit")
        phi = _phi_vector(self.phi, len(counts))
        xi = _vector(self.xi, "xi", sum(counts))
        if np.any(xi <= 0):
            raise ValidationError("unit loss weights must be strictly positive")
        ga = _gamma_value(self.gamma_area)
        gu = _gamma_value(self.gamma_unit)
        object.__setattr__(self, "units_per_area", counts)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "gamma_area", ga)
        object.__setattr__(self, "gamma_unit", gu)

    @property
    def n_areas(self) -> int:
        return len(self.units_per_area)

    @property
    def n_units(self) -> int:
        return int(sum(self.units_per_area))

    def area_slices(self) -> list[slice]:
        """Slice of the unit axis owned by each area, in order."""
        offsets = np.concatenate(([0], np.cumsum(self.units_per_area)))
        return [slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:])]


@dataclass(frozen=True)
class SmoothedEstimate:
    values: np.ndarray
    objective_value: float

    def __post_init__(self):
        if not (np.all(np.isfinite(self.values)) and np.isfinite(self.objective_value)):
            raise NumericalError("estimate contains non-finite values")


@dataclass(frozen=True)
class BenchmarkedEstimate:
    values: np.ndarray
    objective_value: float
    constraint_residual: float

    def __post_init__(self):
        if not (np.all(np.isfinite(self.values)) and np.isfinite(self.objective_value)):
            raise NumericalError("estimate contains non-finite values")


@dataclass(frozen=True)
class StackedProblem:
    """A multivariate problem flattened to a single vector problem."""

    theta_bayes: np.ndarray
    phi: np.ndarray
    omega: np.ndarray


def _objective(d, theta, solver: _SigmaSolver, g) -> float:
    r = d - theta
    return float(r @ (solver.phi * r) + g * (d @ solver.omega @ d))


def penalized_objective(delta, theta_bayes, phi, omega, gamma) -> float:
    """Value of (d - theta)' Phi (d - theta) + gamma d' omega d."""
    d = np.asarray(delta, dtype=float)
    theta, solver, g = _problem(theta_bayes, phi, omega, gamma, size=d.shape[0])
    return _objective(d, theta, solver, g)


def smoothed_estimate(theta_bayes, phi, omega, gamma) -> SmoothedEstimate:
    """Smoothed estimator: the solution of (Phi + gamma*omega) d = Phi theta.

    gamma = 0 returns theta_bayes unchanged (exactly; the solve is skipped).
    Constant vectors pass through untouched for any gamma because the
    all-ones vector lies in the penalty's kernel.
    """
    theta, solver, g = _problem(theta_bayes, phi, omega, gamma)
    values = theta.copy() if g == 0.0 else solver.solve(theta, g)
    return SmoothedEstimate(values, _objective(values, theta, solver, g))


def benchmarked_estimate(theta_bayes, phi, omega, gamma, constraints: ConstraintSet) -> BenchmarkedEstimate:
    """Benchmarked estimator: minimizes the penalized objective under M d = t.

    Equals the smoothed estimator plus an adjustment proportional to the
    constraint discrepancy t - M d_smooth, mapped through Sigma^{-1} M':
    the multipliers solve the k x k Gram system M Sigma^{-1} M'.  This is
    the package's only constrained solve.
    """
    if not isinstance(constraints, ConstraintSet):
        raise ValidationError("constraints must be a ConstraintSet")
    theta, solver, g = _problem(theta_bayes, phi, omega, gamma, constraints)
    values = solver.solve(theta, g, constrained=True)
    residual = float(np.max(np.abs(constraints.M @ values - constraints.t)))
    bound = _RESIDUAL_TOL * (1.0 + float(np.max(np.abs(constraints.t))))
    if residual > bound:
        raise NumericalError(
            f"benchmark residual {residual:.3e} exceeds tolerance {bound:.3e}"
        )
    return BenchmarkedEstimate(values, _objective(values, theta, solver, g), residual)


def benchmarked_estimate_single(theta_bayes, phi, omega, gamma, w, t) -> BenchmarkedEstimate:
    """Single weighted-mean benchmark sum_i w_i d_i = t: the k = 1 case of
    :func:`benchmarked_estimate`, for nonnegative, not all zero weights."""
    theta, solver, g = _problem(theta_bayes, phi, omega, gamma)
    wv = _vector(w, "w", theta.shape[0])
    if np.any(wv < 0):
        raise ValidationError("benchmark weights must be nonnegative")
    if not np.any(wv != 0):
        raise ValidationError("benchmark weight vector must be nonzero")
    t = float(t)
    if not np.isfinite(t):
        raise ValidationError("benchmark target must be finite")
    return benchmarked_estimate(
        theta, solver.phi, solver.omega, g, ConstraintSet(wv[np.newaxis, :], [t])
    )


def unit_level_smoothed(
    layout: UnitLevelLayout, theta_area_bayes, theta_unit_bayes, omega_area, omega_unit
) -> tuple[SmoothedEstimate, SmoothedEstimate]:
    """Smooth area- and unit-level estimates of a two-tier problem.

    The stacked problem is block-diagonal across the two tiers, so it
    decouples into two independent solves with the tier's own weights and
    smoothing factor.
    """
    m, n = layout.n_areas, layout.n_units
    theta_a = _vector(theta_area_bayes, "theta_area_bayes", m)
    theta_u = _vector(theta_unit_bayes, "theta_unit_bayes", n)
    area = smoothed_estimate(theta_a, layout.phi, _omega_matrix(omega_area, m), layout.gamma_area)
    unit = smoothed_estimate(theta_u, layout.xi, _omega_matrix(omega_unit, n), layout.gamma_unit)
    return area, unit


def _check_block_sparsity(layout: UnitLevelLayout, unit_weights: np.ndarray) -> None:
    outside = np.ones_like(unit_weights, dtype=bool)
    for i, sl in enumerate(layout.area_slices()):
        outside[i, sl] = False
    if np.any(unit_weights[outside] != 0.0):
        rows, cols = np.nonzero(outside & (unit_weights != 0.0))
        raise ValidationError(
            f"unit weight at (area {rows[0]}, unit {cols[0]}) falls outside that "
            "area's block; units are strictly nested within areas"
        )


def unit_level_benchmarked(
    layout: UnitLevelLayout,
    theta_area_bayes,
    theta_unit_bayes,
    omega_area,
    omega_unit,
    eta,
    t_area,
    unit_weights,
) -> BenchmarkedEstimate:
    """Benchmark a two-tier problem: the eta-weighted mean of the area
    estimates hits ``t_area``, and within each area the weighted mean of
    the unit estimates equals the area estimate.

    Returns the stacked length-(m + N) estimate, areas first.  The
    constraint matrix is [[eta', 0], [-I, W]] with W holding the per-area
    unit weights in its block-sparse rows.
    """
    m, n = layout.n_areas, layout.n_units
    theta_a = _vector(theta_area_bayes, "theta_area_bayes", m)
    theta_u = _vector(theta_unit_bayes, "theta_unit_bayes", n)
    w_a = _omega_matrix(omega_area, m)
    w_u = _omega_matrix(omega_unit, n)
    eta = _vector(eta, "eta", m)
    t_area = float(t_area)
    if not np.isfinite(t_area):
        raise ValidationError("t_area must be finite")
    weights = np.asarray(unit_weights, dtype=float)
    if weights.shape != (m, n):
        raise ValidationError(f"unit_weights has shape {weights.shape}, expected ({m}, {n})")
    if not np.all(np.isfinite(weights)):
        raise ValidationError("unit_weights contains non-finite entries")
    _check_block_sparsity(layout, weights)

    M = np.zeros((m + 1, m + n))
    M[0, :m] = eta
    M[1:, :m] = -np.eye(m)
    M[1:, m:] = weights
    t = np.concatenate(([t_area], np.zeros(m)))
    constraints = ConstraintSet(M, t)  # rejects rank deficiency (e.g. eta = 0)

    phi_stack = np.concatenate((layout.phi, layout.xi))
    theta_stack = np.concatenate((theta_a, theta_u))
    # Sigma and the effective penalty are block-diagonal with each tier's
    # own gamma already folded in; the stacked solve then uses gamma = 1.
    omega_eff = block_diag(layout.gamma_area * w_a, layout.gamma_unit * w_u)
    return benchmarked_estimate(theta_stack, phi_stack, omega_eff, 1.0, constraints)


def stack_multivariate(per_component) -> StackedProblem:
    """Stack p univariate problems sharing the same areas into one.

    ``per_component`` is a sequence of (theta_bayes, phi, omega) triples.
    Parameters are ordered component-major: all areas of component 1, then
    all areas of component 2, and so on.  The stacked penalty is
    block-diagonal, so a single solve of the stacked problem reproduces
    the p independent solves.
    """
    triples = list(per_component)
    if not triples:
        raise ValidationError("at least one component is required")
    thetas, phis, omegas = [], [], []
    m = None
    for c, (theta, phi, omega) in enumerate(triples):
        theta = _vector(theta, f"theta_bayes[{c}]")
        if m is None:
            m = theta.shape[0]
        elif theta.shape[0] != m:
            raise ValidationError(
                f"component {c} has {theta.shape[0]} areas, expected {m}"
            )
        thetas.append(theta)
        phis.append(_phi_vector(phi, m))
        omegas.append(_omega_matrix(omega, m))
    return StackedProblem(
        theta_bayes=np.concatenate(thetas),
        phi=np.concatenate(phis),
        omega=block_diag(*omegas),
    )
