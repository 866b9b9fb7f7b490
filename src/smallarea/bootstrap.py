"""Residual bootstrap for MSE estimation of constrained estimates.

Residuals of the observed responses around the constrained fit are
standardized by the known per-area observation sd, resampled with
replacement, rescaled, and added back to the constrained fit to produce
synthetic responses; the full estimation pipeline is re-run on each
replicate.  Squared deviations of the replicate estimates around the
generating values give the per-area MSE.

The pipeline is a batch callback: it receives the (B, m) synthetic
responses of every replicate at once and returns the (B, m) replicate
estimates, so that one call can compute every replicate's posterior mean
(see :func:`smallarea.fay_herriot.exact_means`) and the estimates of all
replicates that share a gamma in one solve.  A row with any
non-finite value is a failed replicate; a batch that raises
ValidationError or NumericalError fails every replicate.

RNG stream contract (all replicates are independently seeded, so a
batched and a one-at-a-time run agree): resampling indices for replicate
b come from a Philox generator seeded with
SeedSequence(entropy=seed, spawn_key=(b, 0)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .exceptions import NumericalError, ValidationError, _integer, _reals, _vector
from .fay_herriot import AreaDataset

__all__ = [
    "BootstrapConfig",
    "BootstrapReport",
    "bootstrap_mse",
    "replicate_rng",
    "standardized_residuals",
]

_MAX_FAILURE_FRACTION = 0.05


@dataclass(frozen=True)
class BootstrapConfig:
    """Replicate count and the master seed of the replicate streams."""

    n_replicates: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_replicates", _integer("n_replicates", self.n_replicates, 1))
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0))


@dataclass(frozen=True)
class BootstrapReport:
    """The replicate matrix around its generating values, and the per-area
    MSE and bias it gives.

    Failed replicates appear as NaN rows in ``replicates`` and their
    indices in ``failed``; ``mse`` and ``bias`` average over the other
    rows, so mse = bias^2 + variance holds per area by construction.
    """

    theta_bm: np.ndarray
    replicates: np.ndarray
    failed: tuple[int, ...] = ()

    def __post_init__(self):
        reps = _reals("replicates", self.replicates, 2)  # failed replicates are NaN rows
        theta_bm = _vector("theta_bm", self.theta_bm, reps.shape[1])
        B = reps.shape[0]
        failed = tuple(_integer(f"failed[{k}]", b, 0) for k, b in enumerate(self.failed))
        for k, b in enumerate(failed):
            if b >= B:
                raise ValidationError(f"failed[{k}] must be less than the {B} replicates, got {b}")
        object.__setattr__(self, "theta_bm", theta_bm)
        object.__setattr__(self, "replicates", reps)
        object.__setattr__(self, "failed", failed)

    @property
    def n_replicates(self) -> int:
        return self.replicates.shape[0]

    @property
    def _good(self) -> np.ndarray:
        """The replicates not listed in ``failed``."""
        return np.delete(self.replicates, self.failed, axis=0)

    @cached_property
    def mse(self) -> np.ndarray:
        """Mean of (estimate_i - theta_bm_i)^2 over the successful replicates."""
        return np.mean((self._good - self.theta_bm) ** 2, axis=0)

    @cached_property
    def bias(self) -> np.ndarray:
        """Mean deviation estimate_i - theta_bm_i over the successful replicates."""
        return self._good.mean(axis=0) - self.theta_bm


def _check_sampling_variance(data: AreaDataset) -> None:
    """The residual scale sqrt(D) must be positive at every area."""
    if np.any(data.D <= 0):
        i = int(np.argmin(data.D))
        raise ValidationError(
            f"bootstrap requires positive sampling variance; D=0 at area {data.labels[i]!r}"
        )


def standardized_residuals(y, theta_bm, sigma_u) -> np.ndarray:
    """(y_i - fit_i) / sd_i.  Every observation sd must be positive."""
    y = _vector("y", y)
    fit = _vector("theta_bm", theta_bm, y.size)
    sd = _vector("sigma_u", sigma_u, y.size)
    if np.any(sd <= 0):
        i = int(np.argmin(sd))
        raise ValidationError(
            f"observation sd is not positive at area {i}; residual scale undefined"
        )
    return (y - fit) / sd


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Resampling generator for one replicate (see module docstring)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index, 0))
    return np.random.Generator(np.random.Philox(ss))


def bootstrap_mse(
    data: AreaDataset,
    theta_bm: np.ndarray,
    pipeline: Callable[[np.ndarray], np.ndarray],
    config: BootstrapConfig,
) -> BootstrapReport:
    """Residual-bootstrap MSE of a constrained fit.

    ``theta_bm`` is the completed original fit; ``pipeline(Y_star)``
    re-runs the full inference on the (B, m) synthetic responses and
    returns the (B, m) replicate constrained estimates.  The generating
    values ``theta_bm`` play the role of the truth: MSE_i averages
    (estimate_i - theta_bm_i)^2 over replicates, and bias_i is the mean
    deviation.  A row with a non-finite value is a failed replicate; more
    than 5% failures abort the report.  A pipeline that raises
    ValidationError or NumericalError fails every replicate, a result of
    the wrong shape is a NumericalError, and any other exception is a bug
    and propagates.
    """
    m = data.m
    theta_bm = _vector("theta_bm", theta_bm, m)
    _check_sampling_variance(data)
    sigma_u = np.sqrt(data.D)
    residuals = standardized_residuals(data.y, theta_bm, sigma_u)

    B = config.n_replicates
    y_star = np.empty((B, m))
    for b in range(B):
        rng = replicate_rng(config.seed, b)
        y_star[b] = theta_bm + sigma_u * residuals[rng.integers(0, m, size=m)]
    try:
        replicates = np.array(pipeline(y_star), dtype=float)
    except (ValidationError, NumericalError) as exc:
        raise NumericalError(f"all {B} bootstrap replicates failed: {exc}") from exc
    if replicates.shape != (B, m):
        raise NumericalError(
            f"pipeline returned shape {replicates.shape}, expected ({B}, {m})"
        )
    ok = np.all(np.isfinite(replicates), axis=1)
    replicates[~ok] = np.nan
    failed = np.flatnonzero(~ok)
    if len(failed) > _MAX_FAILURE_FRACTION * B:
        raise NumericalError(
            f"{len(failed)} of {B} bootstrap replicates failed (> {_MAX_FAILURE_FRACTION:.0%})"
        )
    return BootstrapReport(theta_bm, replicates, tuple(failed))
