"""Benchmark of the smallarea pipeline.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

The inputs of workload NAME are generated from the seed into
``.bench_work/NAME-sN/``.  Every timing is taken in fresh worker processes
that import the package from ``src/``, with BLAS threads capped at the
number of usable cores:

* ``--trace 0`` sets up five times (median ``setup_s``), then calls
  ``run_pipeline`` repeatedly for S seconds, at least twice (median
  ``run_s``, process ``peak_rss_mb``);
* ``--trace 1`` makes a first call, a traced call and an untraced one, and
  reports the per-layer metrics of the traced call and the tracing
  overhead (traced minus untraced ``run_s``).

Every report is checked (see ``checks.py``) and must repeat byte for byte.
Metric lines go to stdout, then one JSON result line; the exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
MIN_RUNS = 2  # byte-identity needs a repeat
DEADLINE_S = 170.0  # every run must end within 180 s
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (name, unit, better); shares are of the traced run_s and overlap where
# layers nest (Gibbs chains run inside bootstrap replicates).
PER_LAYER = (
    ("fay_herriot.gibbs_fit_s", "s", "lower"),
    ("fay_herriot.chains", "count", "lower"),
    ("fay_herriot.chain_ms", "ms", "lower"),
    ("fay_herriot.iter_us", "us", "lower"),
    ("fay_herriot.min_ess", "count", "higher"),
    ("fay_herriot.draws_mb", "MB", "lower"),
    ("fay_herriot.run_share", "%", "lower"),
    ("selection.cross_validate_s", "s", "lower"),
    ("selection.grid_point_ms", "ms", "lower"),
    ("selection.held_out_solves", "count", "lower"),
    ("selection.failed_areas", "count", "lower"),
    ("selection.run_share", "%", "lower"),
    ("estimators.calls", "count", "lower"),
    ("estimators.solve_ms", "ms", "lower"),
    ("estimators.total_s", "s", "lower"),
    ("estimators.factor_flops", "flop-computed", "lower"),
    ("estimators.run_share", "%", "lower"),
    ("bootstrap.total_s", "s", "lower"),
    ("bootstrap.replicate_ms", "ms", "lower"),
    ("bootstrap.self_s", "s", "lower"),
    ("bootstrap.replicates", "count", "higher"),
    ("bootstrap.failed", "count", "lower"),
    ("bootstrap.run_share", "%", "lower"),
    ("pipeline.load_s", "s", "lower"),
    ("pipeline.write_s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("similarity.build_omega_s", "s", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.untraced_run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.absent", "count", "lower"),
)

ESTIMATOR_SPANS = (
    "estimators.smoothed_estimate",
    "estimators.benchmarked_estimate",
    "estimators.benchmarked_estimate_single",
)
LOAD_SPANS = (
    "pipeline.load_area_csv",
    "similarity.read_edge_list",
    "similarity.load_adjacency",
    "similarity.build_omega",
)


class BenchError(Exception):
    """A worker failed or the checkout cannot be benchmarked."""


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[dict], untraced_s: float, cpu_s: float, absent: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced run; a layer that did no work, or
    whose functions are absent, reads 0."""
    by_name: dict[str, list[dict]] = defaultdict(list)
    children: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
        if span["parent"] is not None:
            children[span["parent"]].append(span)

    def total(*names: str) -> float:
        return sum(_duration(s) for n in names for s in by_name[n])

    def self_time(name: str) -> float:
        return sum(
            _duration(s) - sum(_duration(c) for c in children[s["id"]]) for s in by_name[name]
        )

    def attr_sum(name: str, key: str) -> float:
        return float(sum(s.get("attrs", {}).get(key) or 0 for s in by_name[name]))

    run_s = total("pipeline.run_pipeline")

    def share(seconds: float) -> float:
        return 100.0 * seconds / run_s if run_s else 0.0

    chains = by_name["fay_herriot.gibbs_fit"]
    estimates = [s for n in ESTIMATOR_SPANS for s in by_name[n]]
    grid_points = attr_sum("selection.cross_validate", "grid_points")
    first_ess = chains[0].get("attrs", {}).get("min_ess") if chains else None
    return {
        "fay_herriot.gibbs_fit_s": total("fay_herriot.gibbs_fit"),
        "fay_herriot.chains": float(len(chains)),
        "fay_herriot.chain_ms": 1e3 * _median(_duration(s) for s in chains),
        "fay_herriot.iter_us": 1e6 * _median(
            _duration(s) / s["attrs"]["n_iter"] for s in chains if s.get("attrs", {}).get("n_iter")
        ),
        "fay_herriot.min_ess": float(first_ess or 0.0),
        "fay_herriot.draws_mb": max(
            (s.get("attrs", {}).get("draw_bytes") or 0 for s in chains), default=0
        ) / 2**20,
        "fay_herriot.run_share": share(total("fay_herriot.gibbs_fit")),
        "selection.cross_validate_s": total("selection.cross_validate"),
        "selection.grid_point_ms": 1e3 * total("selection.cross_validate") / grid_points if grid_points else 0.0,
        "selection.held_out_solves": float(len(by_name["selection.loo_solution"])),
        "selection.failed_areas": attr_sum("selection.cross_validate", "failed_areas"),
        "selection.run_share": share(total("selection.cross_validate")),
        "estimators.calls": float(len(estimates)),
        "estimators.solve_ms": 1e3 * _median(_duration(s) for s in estimates),
        "estimators.total_s": total(*ESTIMATOR_SPANS),
        # one Cholesky factorization of the m x m Sigma per call, m^3/3 flops
        "estimators.factor_flops": sum(s.get("attrs", {}).get("m", 0) ** 3 / 3.0 for s in estimates),
        "estimators.run_share": share(total(*ESTIMATOR_SPANS)),
        "bootstrap.total_s": total("bootstrap.bootstrap_mse"),
        "bootstrap.replicate_ms": 1e3 * _median(_duration(s) for s in by_name["bootstrap.replicate"]),
        "bootstrap.self_s": self_time("bootstrap.bootstrap_mse"),
        "bootstrap.replicates": float(len(by_name["bootstrap.replicate"])),
        "bootstrap.failed": attr_sum("bootstrap.bootstrap_mse", "failed"),
        "bootstrap.run_share": share(total("bootstrap.bootstrap_mse")),
        "pipeline.load_s": total(*LOAD_SPANS),
        "pipeline.write_s": total("pipeline.write_report"),
        "pipeline.self_s": self_time("pipeline.run_pipeline"),
        "similarity.build_omega_s": total("similarity.build_omega"),
        "process.cpu_s": cpu_s,
        "trace.run_s": run_s,
        "trace.untraced_run_s": untraced_s,
        "trace.overhead_s": run_s - untraced_s,
        "trace.spans": float(len(spans)),
        "trace.absent": float(len(absent)),
    }


def child_env(root: Path) -> dict[str, str]:
    """The runner's environment, with the checkout's source first on the
    path and BLAS threads capped at the usable cores."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cores = str(len(os.sched_getaffinity(0)))
    env.update({var: cores for var in BLAS_THREAD_VARS})
    return env


def run_worker(root: Path, args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=root,
            env=child_env(root),
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    module = Path(result["module"]).resolve()
    if root / "src" not in module.parents:
        raise BenchError(f"smallarea was imported from {module}, not from {root / 'src'}")
    return result


def _check_runs(work: Path, runs: list[dict]) -> tuple[list[str], dict]:
    """Checks over the repeated calls of one worker: each call succeeded,
    every repeat wrote the same bytes, and the last report is correct."""
    problems = [f"run {i} raised {r['error']}" for i, r in enumerate(runs) if r["error"]]
    hashes = [r["hashes"] for r in runs if not r["error"]]
    if any(h != hashes[0] for h in hashes[1:]):
        problems.append("report bytes differ between repeats with the same seed")
    facts = {"bootstrap_attempted": 0, "bootstrap_failed": 0}
    if not runs[-1]["error"]:
        from checks import check_report

        try:
            report_problems, facts = check_report(work)
        except (OSError, LookupError, ValueError) as exc:
            report_problems = [f"report cannot be read: {type(exc).__name__}: {exc}"]
        problems += report_problems
    ok = len(hashes)
    facts["attempted"] = len(runs) * (1 + facts["bootstrap_attempted"])
    facts["failed"] = len(runs) - ok + ok * facts["bootstrap_failed"]
    facts["hashes"] = hashes[0] if hashes else {}
    return problems, facts


def run_workload(root: Path, name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Generate one workload, run it, check it; return the result object
    plus the report hashes and problems found."""
    from synth import WORKLOADS, write_workload

    deadline = time.monotonic() + DEADLINE_S
    work = root / ".bench_work" / f"{name}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    config = str(write_workload(WORKLOADS[name], seed, work, root))

    if traced:
        result = run_worker(root, ["trace", config], deadline)
        spans = json.loads(Path(result["spans_path"]).read_text(encoding="utf-8"))
        metrics = layer_metrics(spans, result["untraced_s"], result["cpu_s"], result["absent"])
        units = {n: u for n, u, _ in PER_LAYER}
        absent = result["absent"]
    else:
        setups = [run_worker(root, ["setup", config], deadline) for _ in range(SETUP_REPEATS)]
        result = run_worker(root, ["measure", config, str(seconds), str(MIN_RUNS)], deadline)
        metrics = {
            "run_s": _median(r["run_s"] for r in result["runs"]),
            "setup_s": _median(s["setup_s"] for s in setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = dict(END_TO_END)
        absent = setups[0]["absent"]
    problems, facts = _check_runs(work, result["runs"])
    return {
        "correct": not problems,
        "attempted": facts["attempted"],
        "failed": facts["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "hashes": facts["hashes"],
        "problems": problems,
        "absent": absent,
        "calls": len(result["runs"]),
    }


def print_result(name: str, res: dict) -> None:
    frac = res["failed"] / res["attempted"]
    print(f"workload {name}: {res['calls']} pipeline calls, failed_frac {frac:.6g} "
          f"({res['failed']} of {res['attempted']} runs and replicates)")
    for metric, entry in res["metrics"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    for fname, digest in res["hashes"].items():
        print(f"  sha256 {fname} {digest}")
    for missing in res["absent"]:
        print(f"  absent: {missing} (its metrics read 0)")
    for problem in res["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    from synth import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "smallarea" / "__init__.py").is_file():
        print(f"no package source at {root / 'src' / 'smallarea'}; run from a checkout root",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        try:
            res = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"workload {name}: {exc}", file=sys.stderr)
            return 1
        print_result(name, res)
        all_correct &= res["correct"]
        print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if all_correct else 1


if __name__ == "__main__":
    # Generated inputs must not depend on the core count (threaded LAPACK
    # changes the last bits), so this process's BLAS runs one thread; numpy
    # is therefore only imported, through synth and checks, after this.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
