"""A seeded fuzz of the library's error contract for one-off calls.

Each case draws a small problem (3 to 12 areas, the Laplacian of a path,
a random graph or a complete graph, loss weights phi over two decades,
theta around 10 and a gamma from 1e-3 to 1e3), sets one or two entries of
theta, phi, omega or gamma to an extreme value (NaN, +-inf, -1, 0, 1e308,
1e300, 1e-300, 1e-320, 5e-324, 1e12 or 1e-12), and makes one call with the
plain omega: ``smoothed_estimate``, ``benchmarked_estimate_single``,
``penalized_objective`` or ``loo_solution``.  An omega entry is set as the
weight of one edge, keeping omega a Laplacian, or as one symmetric pair of
off-diagonal entries, which need not.  The contract: the call returns
finite values (the objective may be +inf, the value of an objective past
the largest float) or raises ``ValidationError`` or ``NumericalError``;
nothing else escapes and nothing warns.

``tests/test_estimators.py`` runs a fixed list of seeds.  A longer campaign:

    PYTHONPATH=src python tests/fuzz_library.py --cases 10000

prints every case that breaks the contract and a tally of the outcomes,
and exits 1 if any case broke it.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import collections
import random
import sys
import warnings

import numpy as np

from smallarea import (
    NumericalError,
    ValidationError,
    benchmarked_estimate_single,
    loo_solution,
    penalized_objective,
    smoothed_estimate,
)

CALLS = ("smoothed_estimate", "benchmarked_estimate_single", "penalized_objective", "loo_solution")
VALUES = (np.nan, np.inf, -np.inf, -1.0, 0.0, 1e308, 1e300, 1e-300, 1e-320, 5e-324, 1e12, 1e-12)
TARGETS = ("theta", "phi", "edge", "entry", "gamma")


def _laplacian(m: int, rng: random.Random) -> np.ndarray:
    kind = rng.choice(("path", "random", "complete"))
    if kind == "path":
        pairs = [(i, i + 1) for i in range(m - 1)]
    elif kind == "complete":
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    else:
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < 0.4]
    omega = np.zeros((m, m))
    for i, j in pairs:
        _add_edge(omega, i, j, rng.uniform(0.5, 2.0))
    return omega


def _add_edge(omega: np.ndarray, i: int, j: int, w: float) -> None:
    omega[i, j] -= w
    omega[j, i] -= w
    omega[i, i] += w
    omega[j, j] += w


def draw_case(seed: int):
    """Case ``seed``: the call's name, its positional arguments, and what
    was set to what."""
    rng = random.Random(seed)
    m = rng.randint(3, 12)
    theta = np.array([10.0 + rng.gauss(0.0, 1.0) for _ in range(m)])
    phi = np.array([10.0 ** rng.uniform(-1.0, 1.0) for _ in range(m)])
    omega = _laplacian(m, rng)
    gamma = 10.0 ** rng.uniform(-3.0, 3.0)
    done = []
    with np.errstate(all="ignore"):  # a Laplacian edge of inf makes inf - inf: as the caller would
        for _ in range(rng.randint(1, 2)):
            target, value = rng.choice(TARGETS), rng.choice(VALUES)
            i, j = rng.sample(range(m), 2)
            if target == "theta":
                theta[i] = value
            elif target == "phi":
                phi[i] = value
            elif target == "edge":
                _add_edge(omega, i, j, value)
            elif target == "entry":
                omega[i, j] = omega[j, i] = value
            else:
                gamma = value
            done.append(f"{target}[{i}, {j}] = {value!r}" if target in ("edge", "entry") else f"{target}[{i}] = {value!r}")
    call = rng.choice(CALLS)
    if call == "benchmarked_estimate_single":
        args = (theta, phi, omega, gamma, np.array([rng.uniform(0.0, 1.0) for _ in range(m)]), 10.0)
    elif call == "penalized_objective":
        args = (theta + rng.gauss(0.0, 1.0), theta, phi, omega, gamma)
    elif call == "loo_solution":
        args = (theta, phi, omega, gamma, rng.randrange(m))
    else:
        args = (theta, phi, omega, gamma)
    return call, args, "; ".join(done)


def run_case(seed: int) -> tuple[str, str, str]:
    """Case ``seed``: its call, its mutations, and its outcome: ``ok``, the
    name of the package error it raised, or what broke the contract."""
    call, args, what = draw_case(seed)
    fn = globals()[call]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = fn(*args)
        except (ValidationError, NumericalError) as exc:
            return call, what, type(exc).__name__
        except Exception as exc:
            return call, what, f"broken: {type(exc).__name__}: {exc}"
    values = np.asarray(getattr(result, "values", result))
    if call == "penalized_objective":
        finite = not np.isnan(values)
    else:
        finite = np.isfinite(values).all()
    return call, what, "ok" if finite else f"broken: non-finite result {values!r}"


def broken(outcome: str) -> bool:
    """Whether a case's outcome breaks the contract."""
    return outcome.startswith("broken")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cases", type=int, default=1000, help="number of cases (default 1000)")
    parser.add_argument("--first-seed", type=int, default=0, help="seed of the first case (default 0)")
    args = parser.parse_args(argv)
    tally = collections.Counter()
    failures = 0
    for seed in range(args.first_seed, args.first_seed + args.cases):
        call, what, outcome = run_case(seed)
        tally[call, "broken" if broken(outcome) else outcome] += 1
        if broken(outcome):
            failures += 1
            print(f"seed {seed}: {call}: {what}: {outcome}")
    for (call, outcome), n in sorted(tally.items()):
        print(f"{call:28s} {outcome:16s} {n}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
