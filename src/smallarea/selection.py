"""Leave-one-out cross-validation for the smoothing factor.

Each held-out problem drops one area's loss term (zeroing its weight)
while keeping the full penalty and any benchmark constraints, so the
held-out coordinate is predicted by smoothness and constraints alone.
Held-out fits come from the full fit: the exact leave-one-out identity
for linear smoothers (Craven & Wahba 1979) turns the full fit and one
column of its hat matrix into the held-out fit.  The estimators' solver
forms all m held-out fits of a grid point at once from its one
eigendecomposition, which serves every gamma, so each held-out fit is a
copy of one row and costs O(m).
The score of a grid point is the weighted mean squared gap between those
predictions and the Bayes estimates; the selected gamma minimizes it,
with ties broken toward the smallest value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import ConstraintSet, UnitLevelLayout, _problem
from .exceptions import NumericalError, ValidationError, _integer, _real, _reals, _vector

__all__ = [
    "CvCurve",
    "cross_validate",
    "cross_validate_unit",
    "default_gamma_grid",
    "loo_solution",
]


def _grid(name: str, value) -> np.ndarray:
    """``value`` as a float64 vector of positive finite gammas, nonempty."""
    grid = _vector(name, value)
    if grid.size == 0 or np.any(grid <= 0):
        raise ValidationError(f"{name} must be a nonempty vector of positive finite reals")
    return grid


@dataclass(frozen=True)
class CvCurve:
    """Cross-validation scores over a gamma grid.

    ``failed_areas[k]`` lists the areas whose held-out solve was singular
    at grid point k; such points score +inf but do not abort the search.
    """

    grid: np.ndarray
    scores: np.ndarray
    failed_areas: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        grid = _grid("grid", self.grid)
        scores = _reals("scores", self.scores, 1)  # +inf marks a failed grid point
        if np.any(np.diff(grid) <= 0):
            raise ValidationError("grid must be strictly increasing")
        if scores.shape != grid.shape:
            raise ValidationError("scores must align with the grid")
        if np.any(np.isnan(scores)):
            raise ValidationError("scores may not be NaN")
        if not np.any(np.isfinite(scores)):
            raise ValidationError("at least one grid point must have a finite score")
        failed = self.failed_areas or tuple(() for _ in range(grid.size))
        if len(failed) != grid.size:
            raise ValidationError("failed_areas must align with the grid")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "failed_areas", tuple(tuple(f) for f in failed))

    @property
    def gamma_hat(self) -> float:
        """The grid point of the minimum score, the smallest gamma on a tie."""
        return float(self.grid[np.argmin(self.scores)])


def default_gamma_grid(low: float = 1e-4, high: float = 1e2, num: int = 40) -> np.ndarray:
    """Logarithmic grid of candidate smoothing factors."""
    low, high, num = _real("low", low), _real("high", high), _integer("num", num, 1)
    if not 0 < low < high:
        raise ValidationError(f"need 0 < low < high, got low={low:g}, high={high:g}")
    return np.geomspace(low, high, num)


def loo_solution(
    theta_bayes, phi, omega, gamma, index: int, constraints: ConstraintSet | None = None
) -> np.ndarray:
    """Solve the smoothing problem with area ``index``'s loss term dropped.

    The penalty and any constraints still act on the whole vector.
    Dropping the term is the same as replacing theta_i by the held-out
    prediction itself, so the full fit d = A theta + c gives the held-out
    fit d + (d_i - theta_i) / (1 - A_ii) * A e_i.  The area is unidentified
    when the shared solve is ill-conditioned or 1 - A_ii <= kappa/_CONDITION_LIMIT,
    kappa being the solve's condition number, which bounds A_ii's rounding
    error in units of eps (A_ii = 1 when the area is isolated in the
    similarity graph and untouched by every constraint).  Through a shared
    solver, the held-out fits of every area are formed on the first call at
    a (gamma, theta), and each call returns a copy of one of them.
    """
    theta, solver, g = _problem(theta_bayes, phi, omega, gamma, constraints)
    if g <= 0:
        raise ValidationError("held-out solves require gamma > 0")
    index = _integer("area index", index)
    if not (0 <= index < theta.size):
        raise ValidationError(f"area index {index} out of range [0, {theta.size})")
    try:
        fits, identified = solver.held_out(theta, g, constraints is not None)
    except NumericalError:  # Sigma or the Gram matrix refused at this gamma
        pass
    else:
        if identified[index]:
            return fits[index].copy()
    raise NumericalError(f"held-out area {index} is unidentified at gamma={g:g}")


def cross_validate(
    theta_bayes, phi, omega, grid, constraints: ConstraintSet | None = None
) -> CvCurve:
    """Score every gamma on the grid by exact leave-one-out.

    V(gamma) = (1/m) sum_i phi_i (d_i^{(-i)} - theta_i)^2 over the m
    held-out solves.  Grid points where some held-out solve is singular
    score +inf and record the failing areas; if every point is infeasible
    the search fails with a NumericalError that names the areas that
    failed at every point and holds their indices in its ``areas``
    attribute.  ``omega`` may be the estimators' Sigma solver, so that its
    one eigendecomposition serves the caller's later solves too; each grid
    point forms the held-out fits of all its areas once.
    """
    theta, solver, _ = _problem(theta_bayes, phi, omega, constraints=constraints)
    p, m = solver.phi, theta.shape[0]
    grid = np.unique(_grid("gamma grid", grid))

    scores = np.empty(grid.size)
    failures: list[tuple[int, ...]] = []
    for k, g in enumerate(grid):
        total = 0.0
        failed: list[int] = []
        for i in range(m):
            try:
                held = loo_solution(theta, p, solver, g, i, constraints)
            except NumericalError:
                failed.append(i)
                continue
            total += p[i] * (held[i] - theta[i]) ** 2
        scores[k] = np.inf if failed else total / m
        failures.append(tuple(failed))
    if not np.any(np.isfinite(scores)):
        always = sorted(set.intersection(*map(set, failures)))
        error = NumericalError(f"all grid points infeasible; areas {always} fail at every grid point")
        error.areas = tuple(always)
        raise error
    return CvCurve(grid, scores, tuple(failures))


def cross_validate_unit(
    layout: UnitLevelLayout,
    theta_area_bayes,
    theta_unit_bayes,
    omega_area,
    omega_unit,
    grid_area,
    grid_unit,
) -> tuple[CvCurve, CvCurve]:
    """Pick the (area, unit) smoothing pair over the product grid.

    The joint score of a pair is the sum of the two levels' held-out
    scores.  The two tiers share no loss or penalty terms, so the score
    is additively separable: searching the product grid reduces to two
    independent one-level searches, and the returned curves' minimizers
    jointly minimize the product-grid score.
    """
    curve_area = cross_validate(theta_area_bayes, layout.phi, omega_area, grid_area)
    curve_unit = cross_validate(theta_unit_bayes, layout.xi, omega_unit, grid_unit)
    return curve_area, curve_unit
