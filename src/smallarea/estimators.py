"""Closed-form smoothed and benchmarked estimators.

Given unconstrained Bayes estimates theta, positive loss weights phi and a
smoothness penalty matrix omega, the smoothed estimator minimizes

    (d - theta)' Phi (d - theta) + gamma d' omega d

and the benchmarked estimator minimizes the same objective subject to
linear constraints M d = t.  Both have closed forms from one private
solver, built once for a (phi, omega, constraints): one eigendecomposition
of Phi^{-1/2} omega Phi^{-1/2} gives the inverse of
Sigma = Phi + gamma * omega at every gamma, and a Sigma whose scaled form
Phi^{-1/2} Sigma Phi^{-1/2} is indefinite or ill-conditioned is a
NumericalError.  For the held-out fits of ``selection`` it also keeps the
m held-out fits of its last (gamma, theta), formed at once from the
full fit and the hat-matrix columns A e_i, so that each held-out fit is a
copy of one row; and :func:`_batch_estimates` solves a (B, m) batch of
thetas at once, as the bootstrap does for its replicates.  A run at one
fixed gamma, which shares no decomposition between gammas, uses its
subclass that solves each time, where Gershgorin's discs certify the
system, by conjugate gradients over omega's nonzeros when that costs less
than an LU solve and by the LU solve otherwise, and through the eigen
basis where the discs do not certify it.  A caller that solves many
times, such as the pipeline's estimates, cross-validation and bootstrap,
passes the solver in place of omega; a call with a plain omega builds a
one-off eigen solver.
:func:`benchmarked_estimate` is the one constrained estimate: the single
weighted-mean benchmark and the unit-level (two-tier) benchmark are calls
to it, and multivariate problems reduce to it through block stacking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

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

# Phi^{-1/2} Sigma Phi^{-1/2}, Gram matrices and held-out fits (through
# 1 - A_ii) with condition numbers beyond this are treated as singular.
_CONDITION_LIMIT = 1e12

# A fixed-gamma solve by conjugate gradients stops each right-hand side b
# once its residual is at most _CG_TOL ||b||, both scaled by Sigma's
# diagonal, within _CG_SLACK iterations beyond the convergence bound of its
# certified condition number (or 2m), and is accepted when its true
# residual is within _CG_ROUNDING times the rounding of computing it.  _CG_CALLS and _LU_SPEEDUP price CG against an
# LU solve (see _OneGammaSolver._cg_pays): on a 2-vCPU x86-64 host a CG
# iteration's numpy calls cost about 30000 element operations' worth, and
# OpenBLAS's LU of a 1000 x 1000 matrix did 7.5 (one thread) to 9.3 (two)
# multiply-adds in the time numpy's loops took for one element operation.
_CG_TOL = 1e-15
_CG_SLACK = 10
_CG_ROUNDING = 4
_CG_CALLS = 30000
_LU_SPEEDUP = 8

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
    return a is b or (b is not None and np.array_equal(a.M, b.M) and np.array_equal(a.t, b.t))


def _problem(theta_bayes, phi, omega, gamma=0.0, constraints=None):
    """Validated theta, the Sigma solver and gamma of one smoothing problem
    over theta's areas.  ``omega`` is a penalty matrix, validated into a
    one-off solver together with ``phi`` and ``constraints``, or a
    :class:`_SigmaSolver` built earlier, whose omega is not checked again;
    ``phi`` and any ``constraints`` must then equal the ones it was built
    with, and a theta bitwise equal to the one its held-out fits were
    formed from is not scanned for finiteness again.
    """
    checked = omega.held_out_key if isinstance(omega, _SigmaSolver) else None
    theta = _vector("theta_bayes", theta_bayes, checked=checked)
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


def _projector(gram, sm):
    """The projector S M' (M S M')^{-1} from S M' and the Gram matrix
    M S M'; a Gram matrix whose condition number exceeds _CONDITION_LIMIT
    is a NumericalError."""
    gram = 0.5 * (gram + gram.T)
    if not np.linalg.cond(gram) <= _CONDITION_LIMIT:
        raise NumericalError("degenerate or redundant constraints")
    return np.linalg.solve(gram, sm.T).T


class _SigmaSolver:
    """Solves with Sigma(gamma) = Phi + gamma * omega for one validated
    (phi, omega, constraints).

    Only theta and gamma vary between the solves of a run, so the first
    solve takes one eigendecomposition K = Phi^{-1/2} omega Phi^{-1/2} =
    V diag(lam) V' and keeps lam, U = Phi^{-1/2} V and W = U'M'; then
    S = Sigma^{-1} = U diag(f) U' with f = 1/(1 + gamma lam) at any gamma.
    Sigma is accepted when I + gamma K = Phi^{-1/2} Sigma Phi^{-1/2} is
    positive definite (1 + gamma lam_min > 0) with condition number
    (1 + gamma lam_max)/(1 + gamma lam_min) at most _CONDITION_LIMIT.  A
    constrained solve adds the projector S M' (M S M')^{-1} from the
    condition-checked Gram matrix W' diag(f) W.  Beside the basis only the
    last :meth:`held_out` fits are kept, keyed by gamma, ``constrained`` and
    the bytes of theta.  A solver lives as long as the caller that built it
    holds it.  The decomposition pays for itself over a grid of gammas;
    :class:`_OneGammaSolver` serves a run at one gamma.
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
        self._basis = None  # (lam, U, W) of the one eigendecomposition
        self._table = None  # ((gamma, constrained, theta bytes), fits, identified) of the last held_out call

    def _factors(self, g: float, constrained: bool):
        """f = 1/(1 + g lam) and the projector at gamma ``g``, None unless
        ``constrained``; a rejected Sigma or Gram matrix is a NumericalError."""
        if self._basis is None:
            r = 1.0 / np.sqrt(self.phi)
            with np.errstate(all="ignore"):  # K overflows at a huge D, and lam is then refused
                lam, U = np.linalg.eigh(r[:, None] * self.omega * r)
                U *= r[:, None]
            W = None if self.constraints is None else U.T @ self.constraints.M.T
            self._basis = lam, U, W
        lam, U, W = self._basis
        low, high = 1.0 + g * float(lam[0]), 1.0 + g * float(lam[-1])  # a huge g: inf, no warning
        if not (low > 0 and high / low <= _CONDITION_LIMIT):
            raise NumericalError(f"smoothing system is singular or ill-conditioned at gamma={g:g}")
        f = 1.0 / (1.0 + g * lam)
        if not constrained:
            return f, None
        fw = f[:, None] * W
        return f, _projector(W.T @ fw, U @ fw)

    def _eigen_solve(self, theta, f, proj):
        """:meth:`solve` through the eigen basis from :meth:`_factors`' output."""
        U = self._basis[1]
        # thetas are rows: x @ U is U' x, so one theta costs two
        # matrix-vector products and a batch two matrix products
        d = ((self.phi * theta) @ U * f) @ U.T
        return d if proj is None else self._onto_constraints(d, proj)

    def _onto_constraints(self, d, proj):
        """``d`` moved onto M d = t through the projector, in place."""
        # one step leaves M d - t at about cond(Gram) * eps; a second
        # (iterative refinement) squares that factor
        for _ in range(2):
            d += (self.constraints.t - d @ self.constraints.M.T) @ proj.T
        return d

    @property
    def held_out_key(self) -> bytes | None:
        """The bytes of the theta whose held-out fits are kept (None if
        none are); :func:`_problem` does not scan such a theta again."""
        return None if self._table is None else self._table[0][2]

    def solve(self, theta, g: float, constrained: bool = False):
        """Minimizer d of the penalized objective at gamma ``g``, under
        M d = t when ``constrained``, for a theta of length m or for each
        row of a (B, m) batch.  Unconstrained at g = 0 it is a copy of
        theta, exactly, and nothing is solved.  An ill-conditioned Sigma or
        Gram matrix is a NumericalError."""
        if g == 0.0 and not constrained:
            return theta.copy()
        return self._solve(theta, g, constrained)

    def _solve(self, theta, g: float, constrained: bool):
        return self._eigen_solve(theta, *self._factors(g, constrained))

    def held_out(self, theta, g: float, constrained: bool = False):
        """The m held-out fits at gamma ``g`` and the mask of identified
        areas.  With the full fit d = A theta + c and A e_i = phi_i S e_i,
        moved onto M a = 0 when ``constrained``, row i of the fits is
        d + ((d_i - theta_i)/(1 - A_ii)) A e_i, formed in place over A'.
        Area i is identified when 1 - A_ii > kappa/_CONDITION_LIMIT, kappa
        the condition number of I + g K, which bounds A's rounding error in
        units of eps, and its row is finite.  The fits are looked up by
        gamma, ``constrained`` and theta's bytes before anything is formed,
        so a grid point's fits come from one :meth:`_factors` call, always
        through the eigen basis.  ``theta`` must be finite, as :func:`_problem`
        leaves it, since its bytes become :attr:`held_out_key`."""
        key = g, constrained, theta.tobytes()
        if self._table is None or self._table[0] != key:
            self._table = None  # drop the old fits before the new ones are formed
            f, proj = self._factors(g, constrained)
            d = self._eigen_solve(theta, f, proj)
            U = self._basis[1]
            fits = (self.phi[:, None] * U * f) @ U.T  # row i is A e_i
            if constrained:
                fits -= (fits @ self.constraints.M.T) @ proj.T
            gap = 1.0 - np.diagonal(fits)
            with np.errstate(all="ignore"):  # rows of unidentified areas
                fits *= ((d - theta) / gap)[:, None]
                fits += d
            identified = (gap > (f[0] / f[-1]) / _CONDITION_LIMIT) & np.isfinite(fits).all(axis=1)
            self._table = key, fits, identified
        return self._table[1], self._table[2]


class _OneGammaSolver(_SigmaSolver):
    """A :class:`_SigmaSolver` for a run at one fixed gamma, where no grid
    shares an eigendecomposition: each :meth:`solve` solves
    Sigma X = [Phi theta rows, M] for all its right-hand sides at once,
    and the Gram matrix M S M' comes from the same solve.  It solves by
    Jacobi-preconditioned conjugate gradients (CG) over omega's nonzeros,
    which forms no m x m matrix, where even CG's iteration cap costs less
    than the LU solve of I + gamma K against [Phi^{1/2} theta rows,
    Phi^{-1/2} M'], and by that LU solve otherwise: CG pays on a large,
    sparse omega at a moderate gamma, LU on a small or dense omega, a large
    gamma, or a wide batch (see :meth:`_cg_pays`).

    It takes either route only when Gershgorin's discs certify
    I + gamma K: with every eigenvalue of K in [lo, hi], 1 + gamma lo > 0
    and kappa = (1 + gamma hi)/(1 + gamma lo) <= _CONDITION_LIMIT make a
    system the eigen route accepts too.  hi is the top of K's discs; lo is
    the bound that omega's discs give through x'Kx = (r x)' omega (r x),
    r = Phi^{-1/2}.  For a graph Laplacian omega, whose own discs show
    K >= 0, that bound is 0 and binds: scaling by r breaks the diagonal
    dominance, so K's own lower disc reaches below 0.  Residuals are
    measured in the Jacobi-scaled system, divided by Sigma's diagonal, so
    that one area whose phi dwarfs the others' does not hide theirs.  A
    right-hand side b is done when its CG residual is at most _CG_TOL ||b||.
    A CG solve is accepted when every one is done within the cap,
    (sqrt(kappa)/2) ln(2/_CG_TOL), CG's bound for kappa, or 2m if fewer,
    plus _CG_SLACK iterations, and the true residual b - Sigma x of each
    then is within _CG_ROUNDING times the rounding of computing it; a
    solve not accepted, or whose numbers overflow, is the LU solve's.  At
    a gamma the discs do not certify :meth:`solve` is :class:`_SigmaSolver`'s,
    refusals and messages included; :meth:`held_out`, which a fixed-gamma
    run never calls, is inherited and takes the eigendecomposition."""

    def __init__(self, phi, omega, constraints=None, size: int | None = None):
        super().__init__(phi, omega, constraints, size)
        # the discs of omega and the top of those of K = r omega r, from
        # |omega|, and p, the most off-diagonal nonzeros in a row of omega,
        # taken 64 rows at a time so that no m x m temporary is formed
        m = len(self.phi)
        r = 1.0 / np.sqrt(self.phi)
        centre = np.diagonal(self.omega)
        row_sum, k_sum, count = np.empty(m), np.empty(m), np.empty(m, dtype=int)
        for at in range(0, m, 64):
            mag = np.abs(self.omega[at : at + 64])
            row_sum[at : at + 64], k_sum[at : at + 64] = mag.sum(axis=1), mag @ r
            count[at : at + 64] = np.count_nonzero(mag, axis=1)
        w_lo = np.min(centre - (row_sum - np.abs(centre)))
        with np.errstate(all="ignore"):  # r r overflows at a huge D: then the discs certify nothing
            lo = w_lo * np.max(r * r) if w_lo < 0 else w_lo * np.min(r * r)
            hi = np.max(r * r * centre + r * k_sum - r * r * np.abs(centre))
        self._bounds = float(lo), float(hi)  # every eigenvalue of K lies in [lo, hi]
        self._degree = int(np.max(count - (centre != 0), initial=0))

    @cached_property
    def _padded(self):
        """omega's off-diagonal nonzeros as (p, m) neighbours and weights:
        column i holds row i's, padded with i itself and weight 0.  Built on
        the first CG solve."""
        m = len(self.phi)
        rows, cols = np.nonzero(self.omega)
        rows, cols = rows[rows != cols], cols[rows != cols]
        count = np.bincount(rows, minlength=m)
        at = np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count)
        neighbours = np.tile(np.arange(m), (self._degree, 1))
        neighbours[at, rows] = cols
        weights = np.zeros(neighbours.shape)
        weights[at, rows] = self.omega[rows, cols]
        return neighbours, weights

    def _solve(self, theta, g: float, constrained: bool):
        lo, hi = self._bounds
        low, high = 1.0 + g * lo, 1.0 + g * hi
        if not (low > 0 and high / low <= _CONDITION_LIMIT):
            return super()._solve(theta, g, constrained)
        m = len(self.phi)
        rows = np.atleast_2d(theta)
        M = self.constraints.M if constrained else np.empty((0, m))
        cap = min(int(0.5 * np.sqrt(high / low) * np.log(2.0 / _CG_TOL)), 2 * m) + _CG_SLACK
        x = None
        if self._cg_pays(cap, len(rows) + len(M)):
            # each CG starts from the solution at gamma = 0: theta itself for
            # a theta row, so an omega that annihilates it leaves it exactly
            x = self._cg(np.vstack((rows, M / self.phi)), np.vstack((self.phi * rows, M)), g, cap)
        if x is None:
            x = self._lu(rows, g, M)
        d = x[: len(rows)].reshape(np.shape(theta))
        if not constrained:
            return d
        sm = x[len(rows) :].T  # S M'
        return self._onto_constraints(d, _projector(M @ sm, sm))

    def _cg_pays(self, cap: int, n: int) -> bool:
        """Whether ``cap`` CG iterations on ``n`` right-hand sides cost no
        more than the LU solve, both counted in numpy's element operations.
        A CG iteration costs _CG_CALLS for its numpy calls and, for each
        right-hand side, (3 p + 15) m for its passes over the padded
        neighbours and the areas.  The LU solve costs m^3/3 multiply-adds
        for the factor and m^2 for each right-hand side, _LU_SPEEDUP of them
        per element operation, and 3 m^2 to form I + gamma K."""
        m = len(self.phi)
        cg = cap * (_CG_CALLS + n * (3 * self._degree + 15) * m)
        return cg <= (m**3 / 3 + m * m * n) / _LU_SPEEDUP + 3 * m * m

    def _lu(self, rows, g: float, M):
        """The rows of Sigma x = [Phi ``rows``; ``M``], ``M`` empty for no
        constraint, by one LU solve of I + g K against [Phi^{1/2} rows,
        Phi^{-1/2} M'], scaled by Phi^{-1/2}."""
        root = np.sqrt(self.phi)
        a = self.omega / root[:, None]
        a *= g / root
        a[np.diag_indices_from(a)] += 1.0
        rhs = np.hstack(((root * rows).T, M.T / root[:, None]))
        return (np.linalg.solve(a, rhs) / root[:, None]).T

    @np.errstate(all="ignore")  # an overflow makes a residual or bound non-finite: None
    def _cg(self, x, b, g: float, cap: int):
        """``x`` moved in place, row by row, to the solution of Sigma x = b
        by Jacobi-preconditioned CG from its given rows; None when a row is
        not done within ``cap`` iterations, its true residual is too large
        or anything is not finite.  Residuals and their bounds are over
        Sigma's diagonal.  A row that is done stops iterating, so it does
        not depend on the other rows, and no step calls BLAS, so it does
        not depend on the thread count either."""
        diag = self.phi + g * np.diagonal(self.omega)  # > 0: Sigma is certified positive definite
        neighbours, weights = self._padded
        weights = g * weights

        def sigma(v):  # Sigma v, for each row v, gathering 8 neighbours at a time
            out = diag * v
            for at in range(0, self._degree, 8):
                near = np.take(v, neighbours[at : at + 8], axis=1)  # (rows, 8, m)
                near *= weights[at : at + 8]
                for term in near.transpose(1, 0, 2):
                    out += term
            return out

        def norms(v):
            return np.sqrt((v * v).sum(axis=1))

        b_norm = norms(b / diag)
        goal = _CG_TOL * b_norm
        live = np.arange(len(x))  # the rows of x still iterating
        xs, r = x, b - sigma(x)
        z = r / diag
        p, rz = z, (r * z).sum(axis=1)
        for k in itertools.count():
            res = norms(z)
            if not np.isfinite(res).all():
                return None
            done = res <= goal
            if done.any():
                x[live[done]] = xs[done]
                keep = ~done
                live, xs, r, p, rz, goal = live[keep], xs[keep], r[keep], p[keep], rz[keep], goal[keep]
            if not len(live):
                break
            if k >= cap:
                return None
            q = sigma(p)
            alpha = rz / (p * q).sum(axis=1)
            xs += alpha[:, None] * p
            r -= alpha[:, None] * q
            z = r / diag
            rz, old = (r * z).sum(axis=1), rz
            p = z + (rz / old)[:, None] * p
        # CG's residual drifts from b - Sigma x by rounding.  Computing
        # b - Sigma x itself rounds each entry by up to (p + 3) eps times
        # |b| + |Sigma| |x|, p + 1 the most entries in a row of Sigma, so
        # accept the rows only within _CG_ROUNDING times that, over Sigma's
        # diagonal, with the scaled ||Sigma|| no more than its largest
        # absolute row sum over the diagonal
        norm = np.max((diag + np.abs(weights).sum(axis=0)) / diag)
        rounding = _CG_ROUNDING * (self._degree + 3) * np.finfo(float).eps
        bound = rounding * (norm * norms(x) + b_norm)
        true = norms((b - sigma(x)) / diag)
        return x if np.all(true <= bound) and np.isfinite(bound).all() else None


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


def _check_finite(values, objective_value) -> None:
    """A non-finite estimate, or the overflowed objective of a finite one,
    is a NumericalError that says which."""
    if not np.all(np.isfinite(values)):
        raise NumericalError("estimate contains non-finite values")
    if not np.isfinite(objective_value):
        raise NumericalError("the penalized objective overflowed; the estimate's values are finite")


@dataclass(frozen=True)
class SmoothedEstimate:
    values: np.ndarray
    objective_value: float

    def __post_init__(self):
        _check_finite(self.values, self.objective_value)


@dataclass(frozen=True)
class BenchmarkedEstimate:
    values: np.ndarray
    objective_value: float
    constraint_residual: float

    def __post_init__(self):
        _check_finite(self.values, self.objective_value)


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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is inf or NaN, refused by the caller
        return float(r @ (solver.phi * r) + g * (d @ solver.omega @ d))


def penalized_objective(delta, theta_bayes, phi, omega, gamma) -> float:
    """Value of (d - theta)' Phi (d - theta) + gamma d' omega d."""
    d = _vector("delta", delta)
    theta, solver, g = _problem(theta_bayes, phi, omega, gamma)
    if theta.shape != d.shape:
        raise ValidationError(f"theta_bayes has length {theta.shape[0]}, expected {d.shape[0]}")
    return _objective(d, theta, solver, g)


def smoothed_estimate(theta_bayes, phi, omega, gamma) -> SmoothedEstimate:
    """Smoothed estimator: the solution of (Phi + gamma*omega) d = Phi theta.

    gamma = 0 returns theta_bayes unchanged (exactly: the solver skips
    the solve).  Constant vectors pass through untouched for any gamma
    because the all-ones vector lies in the penalty's kernel.
    """
    theta, solver, g = _problem(theta_bayes, phi, omega, gamma)
    values = solver.solve(theta, g)
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


def _batch_estimates(thetas: np.ndarray, solver: _SigmaSolver, g: float, constrained: bool) -> np.ndarray:
    """Row b is, up to roundoff, :func:`smoothed_estimate` of row b of the
    (B, m) ``thetas`` at gamma ``g`` alone, or :func:`benchmarked_estimate`
    under the solver's constraints when ``constrained``; the solver returns
    an unconstrained row at g = 0 as its theta, exactly.  One solve serves
    every row: two matrix products with the eigen basis, or one CG or LU
    solve with B right-hand sides for a :class:`_OneGammaSolver`.  A row
    that is not finite, or whose estimate is not finite or exceeds the
    residual bound, is a NaN row; an ill-conditioned Sigma or Gram matrix
    is a NumericalError."""
    out = np.full(thetas.shape, np.nan)
    rows = np.flatnonzero(np.isfinite(thetas).all(axis=1))
    d = solver.solve(thetas[rows], g, constrained)
    good = np.isfinite(d).all(axis=1)
    if constrained:
        c = solver.constraints
        good &= np.max(np.abs(d @ c.M.T - c.t), axis=1) <= _residual_bound(c.t)
    out[rows[good]] = d[good]
    return out


def benchmarked_estimate_single(theta_bayes, phi, omega, gamma, w, t) -> BenchmarkedEstimate:
    """Single weighted-mean benchmark sum_i w_i d_i = t: the k = 1 case of
    :func:`benchmarked_estimate`, for nonnegative, not all zero weights."""
    wv = _vector("w", w)
    if np.any(wv < 0):
        raise ValidationError("benchmark weights must be nonnegative")
    if not np.any(wv != 0):
        raise ValidationError("benchmark weight vector must be nonzero")
    constraints = ConstraintSet(wv[np.newaxis, :], [_real("t", t)])
    return benchmarked_estimate(theta_bayes, phi, omega, gamma, constraints)


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
    area = smoothed_estimate(theta_a, layout.phi, omega_area, layout.gamma_area)
    unit = smoothed_estimate(theta_u, layout.xi, omega_unit, layout.gamma_unit)
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
