"""Residual bootstrap for MSE estimation of constrained estimates.

Residuals of the observed responses around the constrained fit are
standardized by the known per-area observation sd, resampled with
replacement, rescaled, and added back to the constrained fit to produce
synthetic responses; the full estimation pipeline is re-run on each
replicate.  Squared deviations of the replicate estimates around the
generating values give the per-area MSE.

The pipeline is a batch callback: it receives every replicate at once,
the (B, m) synthetic responses and the B chain seeds, and returns the
(B, m) replicate estimates, so that the replicate chains can run in lock
step (see :func:`smallarea.fay_herriot.gibbs_means`).  A row with any
non-finite value is a failed replicate; a batch that raises
ValidationError or NumericalError fails every replicate.

RNG stream contract (all replicates are independently seeded, so a
batched and a one-at-a-time run agree):

  * resampling indices for replicate b come from a Philox generator
    seeded with SeedSequence(entropy=seed, spawn_key=(b, 0));
  * the chain seed passed to the pipeline for replicate b is the first
    state word of SeedSequence(entropy=seed, spawn_key=(b, 1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import NumericalError, ValidationError, _integer, _vector
from .fay_herriot import AreaDataset

__all__ = [
    "BootstrapConfig",
    "BootstrapReport",
    "bootstrap_mse",
    "replicate_gibbs_seed",
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
    """Per-area MSE and bias plus the full replicate matrix.

    Failed replicates appear as NaN rows in ``replicates`` and their
    indices in ``failed``; summaries average over the successes.  The
    decomposition mse = bias^2 + variance holds per area by construction
    and is re-verified here.
    """

    mse: np.ndarray
    bias: np.ndarray
    replicates: np.ndarray
    failed: tuple[int, ...] = ()

    def __post_init__(self):
        mse = np.asarray(self.mse, dtype=float)
        bias = np.asarray(self.bias, dtype=float)
        reps = np.asarray(self.replicates, dtype=float)
        if reps.ndim != 2:
            raise ValidationError("replicates must be a (B, m) matrix")
        if mse.shape != (reps.shape[1],) or bias.shape != (reps.shape[1],):
            raise ValidationError("mse and bias must have one entry per area")
        if np.any(mse < 0):
            raise ValidationError("MSE entries must be nonnegative")
        ok = np.ones(reps.shape[0], dtype=bool)
        ok[list(self.failed)] = False
        if np.any(ok):
            good = reps[ok]
            center = good.mean(axis=0)
            variance = np.mean((good - center) ** 2, axis=0)
            gap = np.abs(mse - (bias**2 + variance))
            if np.any(gap > 1e-10 * (1.0 + mse)):
                raise ValidationError("mse does not decompose into bias^2 + variance")
        object.__setattr__(self, "mse", mse)
        object.__setattr__(self, "bias", bias)
        object.__setattr__(self, "replicates", reps)
        object.__setattr__(self, "failed", tuple(int(b) for b in self.failed))

    @property
    def n_replicates(self) -> int:
        return self.replicates.shape[0]


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


def replicate_gibbs_seed(seed: int, index: int) -> int:
    """Chain seed for one replicate (see module docstring)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index, 1))
    return int(ss.generate_state(1)[0])


def bootstrap_mse(
    data: AreaDataset,
    theta_bm: np.ndarray,
    pipeline: Callable[[np.ndarray, np.ndarray], np.ndarray],
    config: BootstrapConfig,
) -> BootstrapReport:
    """Residual-bootstrap MSE of a constrained fit.

    ``theta_bm`` is the completed original fit; ``pipeline(Y_star, seeds)``
    re-runs the full inference on the (B, m) synthetic responses, row b
    with chain seed ``seeds[b]``, and returns the (B, m) replicate
    constrained estimates.  The generating values ``theta_bm`` play the
    role of the truth: MSE_i averages (estimate_i - theta_bm_i)^2 over
    replicates, and bias_i is the mean deviation.  A row with a non-finite
    value is a failed replicate; more than 5% failures abort the report.
    A pipeline that raises ValidationError or NumericalError fails every
    replicate, a result of the wrong shape is a NumericalError, and any
    other exception is a bug and propagates.
    """
    m = data.m
    theta_bm = _vector("theta_bm", theta_bm, m)
    if np.any(data.D <= 0):
        i = int(np.argmin(data.D))
        raise ValidationError(
            f"bootstrap requires positive sampling variance; D=0 at area {data.labels[i]!r}"
        )
    sigma_u = np.sqrt(data.D)
    residuals = standardized_residuals(data.y, theta_bm, sigma_u)

    B = config.n_replicates
    y_star = np.empty((B, m))
    for b in range(B):
        rng = replicate_rng(config.seed, b)
        y_star[b] = theta_bm + sigma_u * residuals[rng.integers(0, m, size=m)]
    seeds = np.array([replicate_gibbs_seed(config.seed, b) for b in range(B)])
    try:
        replicates = np.array(pipeline(y_star, seeds), dtype=float)
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
    good = replicates[ok]
    mse = np.mean((good - theta_bm) ** 2, axis=0)
    bias = good.mean(axis=0) - theta_bm
    return BootstrapReport(mse=mse, bias=bias, replicates=replicates, failed=tuple(failed))
