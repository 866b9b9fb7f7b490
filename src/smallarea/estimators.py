"""Closed-form smoothed and benchmarked estimators.

Given unconstrained Bayes estimates theta, positive loss weights phi and a
smoothness penalty matrix omega, the smoothed estimator minimizes

    (d - theta)' Phi (d - theta) + gamma d' omega d

and the benchmarked estimator minimizes the same objective subject to
linear constraints M d = t.  Both have closed forms from one private
solver, built once for a (phi, omega, constraints): it inverts the
symmetric positive-definite Sigma = Phi + gamma * omega once per gamma
with numpy, rejects an indefinite or ill-conditioned Sigma as a
NumericalError, and keeps the last gamma's inverse for every later solve
at that gamma.  For the held-out fits of ``selection`` it also keeps, at
that gamma, the full fit of one theta and the table of hat-matrix columns
A e_i, so that each held-out fit reads one row of it.
A caller that solves many times, such as the pipeline's estimates,
cross-validation and bootstrap, passes the solver in place of omega; a
call with a plain omega builds a one-off solver.
:func:`benchmarked_estimate` is the one constrained estimate: the single
weighted-mean benchmark and the unit-level (two-tier) benchmark are calls
to it, and multivariate problems reduce to it through block stacking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError, ValidationError, _integer, _matrix, _real, _vector
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


def _phi_vector(phi, size: int | None = None) -> np.ndarray:
    v = _vector("phi", phi.phi if isinstance(phi, LossWeights) else phi, size)
    if np.any(v <= 0):
        raise ValidationError("loss weights must be strictly positive")
    return v


def _omega_matrix(omega, size: int) -> np.ndarray:
    w = (omega if isinstance(omega, SmoothnessMatrix) else SmoothnessMatrix(omega)).omega
    if w.shape != (size, size):
        raise ValidationError(f"penalty matrix has shape {w.shape}, expected ({size}, {size})")
    return w


def _residual_bound(t) -> float:
    """Largest accepted ||M d - t||_inf of a benchmarked result with targets t."""
    return _RESIDUAL_TOL * (1.0 + float(np.max(np.abs(t))))


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
    theta = _vector("theta_bayes", theta_bayes, size)
    m = theta.shape[0]
    if isinstance(omega, _SigmaSolver):
        solver = omega
        own = phi is solver.phi and len(phi) == m  # the solver's own weights pass unchecked
        if not own and not np.array_equal(_phi_vector(phi, m), solver.phi):
            raise ValidationError("phi differs from the loss weights the solver was built with")
        if constraints is not None and not _same_constraints(constraints, solver.constraints):
            raise ValidationError("constraints differ from those the solver was built with")
    else:
        solver = _SigmaSolver(phi, omega, constraints, m)
    return theta, solver, _real("gamma", gamma, 0)


class _SigmaSolver:
    """Solves with Sigma(gamma) = Phi + gamma * omega for one validated
    (phi, omega, constraints).

    Only theta and gamma vary between the solves of a run, so the solver
    keeps what the last gamma it was asked about needed: S = Sigma^{-1},
    kept when Sigma has a Cholesky factor (so an indefinite omega is
    rejected) and the exact 1-norm condition number ||Sigma|| ||S|| is at
    most _CONDITION_LIMIT, and, from the first constrained solve on, the
    projector S M' (M S M')^{-1} formed once from the condition-checked
    Gram matrix M S M', or the NumericalError message either step raised.
    Every solve at that gamma is a product with S, plus one with the
    projector when constrained.  The same slot holds the table of the
    last :meth:`held_out` call, the full fit d and the m x m A', keyed by
    ``constrained`` and a copy of theta; a new gamma drops it with S and
    the projector.  A solver lives as long as the caller that built it
    holds it.
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
        self._inv = self._proj = None  # S / S M' (M S M')^{-1}, or an error message
        self._table = None  # (constrained, theta, d, A') of the last held_out call

    def _inverse(self, g: float):
        if g != self._gamma:
            # drop the old gamma's arrays before the new inverse is formed
            self._gamma, self._inv, self._proj, self._table = g, None, None, None
            self._inv = self._invert(g)
        if isinstance(self._inv, str):
            raise NumericalError(self._inv)
        return self._inv

    def _invert(self, g: float):
        sigma = g * self.omega
        sigma[np.diag_indices_from(sigma)] += self.phi
        try:
            np.linalg.cholesky(sigma)  # rejects a Sigma that is not positive definite
            inv = np.linalg.inv(sigma)
            cond = np.linalg.norm(sigma, 1) * np.linalg.norm(inv, 1)
        except np.linalg.LinAlgError:  # not positive definite, or exactly singular
            cond = np.inf
        if not cond <= _CONDITION_LIMIT:
            return f"smoothing system is singular or ill-conditioned at gamma={g:g}"
        return inv

    def _constrain(self, values, g: float, t):
        """``values`` plus the S M' lambda that puts the sum on M d = t."""
        if self._proj is None:
            sinv_mt = self._inverse(g) @ self.constraints.M.T
            gram = self.constraints.M @ sinv_mt
            gram = 0.5 * (gram + gram.T)
            if np.linalg.cond(gram) <= _CONDITION_LIMIT:
                self._proj = np.linalg.solve(gram, sinv_mt.T).T
            else:
                self._proj = "degenerate or redundant constraints"
        if isinstance(self._proj, str):
            raise NumericalError(self._proj)
        return values + self._proj @ (t - self.constraints.M @ values)

    def solve(self, theta, g: float, constrained: bool = False):
        """Minimizer d of the penalized objective at gamma ``g``, under
        M d = t when ``constrained``.  An ill-conditioned Sigma or Gram
        matrix is a NumericalError."""
        d = self._inverse(g) @ (self.phi * theta)
        return self._constrain(d, g, self.constraints.t) if constrained else d

    def held_out(self, theta, g: float, constrained: bool = False):
        """The full fit d = A theta + c at gamma ``g`` and A', whose row i
        is A e_i = phi_i S e_i, moved onto M a = 0 when ``constrained``.
        Both are kept until gamma, ``constrained`` or the values of theta
        change, so the held-out fits of one grid point share them."""
        S = self._inverse(g)
        table = self._table
        if table is None or table[0] != constrained or not np.array_equal(table[1], theta):
            self._table = None  # drop the old table before the new one is formed
            d = self.solve(theta, g, constrained)
            At = S.T * self.phi[:, None]
            if constrained:  # solve has formed the projector
                At -= (At @ self.constraints.M.T) @ self._proj.T
            self._table = table = (constrained, theta.copy(), d, At)
        return table[2], table[3]


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
        M = _matrix("M", self.M)
        k, m = M.shape
        if k < 1:
            raise ValidationError("at least one constraint row is required")
        if k > m:
            raise ValidationError(
                f"{k} constraints on {m} parameters cannot have full row rank"
            )
        t = _vector("t", self.t, k)
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
        counts = tuple(
            _integer(f"units_per_area[{i}]", n, 1) for i, n in enumerate(self.units_per_area)
        )
        if len(counts) == 0:
            raise ValidationError("every area must contain at least one unit")
        phi = _phi_vector(self.phi, len(counts))
        xi = _vector("xi", self.xi, sum(counts))
        if np.any(xi <= 0):
            raise ValidationError("unit loss weights must be strictly positive")
        ga = _real("gamma_area", self.gamma_area, 0)
        gu = _real("gamma_unit", self.gamma_unit, 0)
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


def _block_diag(*blocks) -> np.ndarray:
    """Square blocks laid along the diagonal of a zero matrix."""
    out, at = np.zeros((sum(map(len, blocks)),) * 2), 0
    for b in blocks:
        out[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    return out


def _objective(d, theta, solver: _SigmaSolver, g) -> float:
    r = d - theta
    return float(r @ (solver.phi * r) + g * (d @ solver.omega @ d))


def penalized_objective(delta, theta_bayes, phi, omega, gamma) -> float:
    """Value of (d - theta)' Phi (d - theta) + gamma d' omega d."""
    d = _vector("delta", delta)
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
    bound = _residual_bound(constraints.t)
    if residual > bound:
        raise NumericalError(
            f"benchmark residual {residual:.3e} exceeds tolerance {bound:.3e}"
        )
    return BenchmarkedEstimate(values, _objective(values, theta, solver, g), residual)


def benchmarked_estimate_single(theta_bayes, phi, omega, gamma, w, t) -> BenchmarkedEstimate:
    """Single weighted-mean benchmark sum_i w_i d_i = t: the k = 1 case of
    :func:`benchmarked_estimate`, for nonnegative, not all zero weights."""
    theta, solver, g = _problem(theta_bayes, phi, omega, gamma)
    wv = _vector("w", w, theta.shape[0])
    if np.any(wv < 0):
        raise ValidationError("benchmark weights must be nonnegative")
    if not np.any(wv != 0):
        raise ValidationError("benchmark weight vector must be nonzero")
    return benchmarked_estimate(
        theta, solver.phi, solver.omega, g, ConstraintSet(wv[np.newaxis, :], [_real("t", t)])
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
    theta_a = _vector("theta_area_bayes", theta_area_bayes, m)
    theta_u = _vector("theta_unit_bayes", theta_unit_bayes, n)
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
    theta_a = _vector("theta_area_bayes", theta_area_bayes, m)
    theta_u = _vector("theta_unit_bayes", theta_unit_bayes, n)
    w_a = _omega_matrix(omega_area, m)
    w_u = _omega_matrix(omega_unit, n)
    eta = _vector("eta", eta, m)
    t_area = _real("t_area", t_area)
    weights = _matrix("unit_weights", unit_weights, (m, n))
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
    omega_eff = _block_diag(layout.gamma_area * w_a, layout.gamma_unit * w_u)
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
        theta = _vector(f"theta_bayes[{c}]", theta)
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
        omega=_block_diag(*omegas),
    )
