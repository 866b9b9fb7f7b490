"""Correctness checks on a written report, independent of the package.

Every check reads only the workload's input files and the report files,
and solves the estimation problem again by one bordered-KKT LU solve
(the same construction as ``tests/oracles.py``), so a fast path that
changes the numbers is caught whatever route produced them.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

# Benchmarked reports must satisfy ||M d - t||_inf <= RESIDUAL_TOL * (1 + ||t||_inf).
RESIDUAL_TOL = 1e-8
# Closed-form estimates must match the reference solve to this relative gap.
SOLVE_TOL = 1e-8


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _column(rows: list[dict[str, str]], name: str) -> np.ndarray:
    return np.array([float(r[name]) for r in rows])


def read_config(path: Path) -> dict[str, str]:
    cfg = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            key, _, value = line.partition("=")
            cfg[key.strip()] = value.strip()
    return cfg


def penalty_matrix(edge_list: Path, labels: list[str]) -> np.ndarray:
    """Omega with d' Omega d = sum over ordered pairs of q_ij (d_i - d_j)^2."""
    index = {lab: i for i, lab in enumerate(labels)}
    omega = np.zeros((len(labels), len(labels)))
    for line in edge_list.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        i, j = index[fields[0].strip()], index[fields[1].strip()]
        q = float(fields[2]) if len(fields) == 3 else 1.0
        omega[i, j] -= 2.0 * q
        omega[j, i] -= 2.0 * q
        omega[i, i] += 2.0 * q
        omega[j, j] += 2.0 * q
    return omega


def constraints(work: Path, cfg: dict[str, str], areas: list[dict[str, str]]):
    """(M, t) of the run's benchmark, or (None, None) without one."""
    if cfg.get("benchmark_weight_column"):
        w = _column(areas, cfg["benchmark_weight_column"])
        return (w / w.sum())[np.newaxis, :], np.array([float(cfg["benchmark_target"])])
    if cfg.get("benchmark_matrix_csv"):
        M = np.loadtxt(work / cfg["benchmark_matrix_csv"], delimiter=",", ndmin=2)
        t = np.loadtxt(work / cfg["benchmark_targets_csv"], delimiter=",", ndmin=1)
        return M, t
    return None, None


def kkt_solve(theta, phi, omega, gamma, M=None, t=None) -> np.ndarray:
    """Minimizer of (d-theta)' Phi (d-theta) + gamma d' Omega d s.t. M d = t."""
    m = theta.shape[0]
    k = 0 if M is None else M.shape[0]
    kkt = np.zeros((m + k, m + k))
    kkt[:m, :m] = gamma * omega
    kkt[np.arange(m), np.arange(m)] += phi
    rhs = np.concatenate((phi * theta, np.zeros(k) if t is None else t))
    if M is not None:
        kkt[:m, m:] = M.T
        kkt[m:, :m] = M
    return np.linalg.solve(kkt, rhs)[:m]


def _gap(values: np.ndarray, reference: np.ndarray) -> float:
    return float(np.max(np.abs(values - reference)) / (1.0 + np.max(np.abs(reference))))


def check_report(work: Path) -> tuple[list[str], dict]:
    """Check the report under ``work/out`` against the inputs in ``work``.

    Returns the list of failed checks (empty when all pass) and facts read
    from the report: the constraint residual, the bootstrap replicate
    counts and the largest gap to the reference solves.
    """
    cfg = read_config(work / "run.cfg")
    out = work / cfg["output_dir"]
    problems: list[str] = []
    facts = {"bootstrap_attempted": 0, "bootstrap_failed": 0}
    areas = read_rows(work / cfg["area_csv"])
    est = read_rows(out / "estimates.csv")
    meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
    labels = [r["label"] for r in areas]
    if [r["label"] for r in est] != labels:
        return ["estimates.csv rows do not match the input areas"], facts

    theta = _column(est, "theta_bayes")
    D = _column(est, "D")
    gamma = float(meta["gamma"])
    omega = penalty_matrix(work / cfg["edge_list"], labels)
    M, t = constraints(work, cfg, areas)
    smoothed = _column(est, "theta_smoothed")
    benchmarked = _column(est, "theta_benchmarked")
    phi = 1.0 / D
    gaps = {
        "theta_smoothed": _gap(smoothed, kkt_solve(theta, phi, omega, gamma)),
        "theta_benchmarked": _gap(benchmarked, kkt_solve(theta, phi, omega, gamma, M, t)),
    }
    facts["max_gap"] = max(gaps.values())
    for name, gap in gaps.items():
        if not gap <= SOLVE_TOL:
            problems.append(f"{name} is {gap:.3e} away from the bordered-KKT solve")

    if M is not None:
        residual = float(np.max(np.abs(M @ benchmarked - t)))
        facts["constraint_residual"] = residual
        if not residual <= RESIDUAL_TOL * (1.0 + float(np.max(np.abs(t)))):
            problems.append(f"constraint residual {residual:.3e} exceeds tolerance")

    if cfg.get("gamma_grid"):
        curve = read_rows(out / "cv_curve.csv")
        scores = [np.inf if r["score"] == "inf" else float(r["score"]) for r in curve]
        best = float(curve[int(np.argmin(scores))]["gamma"])
        if best != gamma:
            problems.append(f"gamma {gamma!r} is not the argmin {best!r} of cv_curve.csv")

    reps = int(cfg.get("bootstrap_replicates", "0"))
    if reps > 0:
        mse = _column(read_rows(out / "bootstrap_mse.csv"), "mse")
        if mse.shape != theta.shape or not np.all(np.isfinite(mse) & (mse >= 0)):
            problems.append("bootstrap_mse.csv does not hold one finite nonnegative MSE per area")
        facts["bootstrap_attempted"] = reps
        facts["bootstrap_failed"] = len(meta["bootstrap"]["failed"])
    return problems, facts
