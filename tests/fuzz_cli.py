"""A seeded fuzz of the command line's error contract.

Each case copies the bundled 51-state fixture, writes a config (300/100
iterations, 10 bootstrap replicates, the weighted-mean benchmark, and
either a 5-point gamma grid or gamma = 0.5), applies one or two seeded
mutations to the area CSV, the edge list or the config, and calls
``cli.main`` for one of ``fit``, ``cv``, ``estimate`` and ``run``.  The
contract: the exit code is 0, 2 or 3, no exception escapes, and nothing
warns.  The output directory is given by ``--out`` inside the case's own
directory, so that no mutation of the config can send output elsewhere.

A case that exits 0 must also pass a check of its report that does not
use the package's solvers (:func:`report_problems`): the inputs are read
as the run read them, and then the estimates must be the bordered-KKT
solutions of ``oracles.kkt_solve`` at the gamma the report wrote, the
benchmarked estimate must meet its targets within the package's bound,
and that gamma must be the argmin of ``cv_curve.csv`` when there is one.

``tests/test_cli.py`` runs a fixed list of seeds.  A longer campaign:

    PYTHONPATH=src python tests/fuzz_cli.py --cases 12800

prints every case that breaks the contract and a tally of the outcomes,
and exits 1 if any case broke it.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import io
import json
import random
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from oracles import kkt_solve
from smallarea import cli, load_area_csv, read_edge_list
from smallarea.datasets import synthetic_dataset_path, us_state_borders_path

COMMANDS = ("fit", "cv", "estimate", "run")
VALUES = ("", "nan", "inf", "-inf", "-1", "0", "1e308", "1e-320", "1e400", "abc", "\x00", "\ufeff", "é")
# a value lands in a number more often than a line's structure changes
MUTATIONS = {"value": 3, "delete": 1, "duplicate": 1, "truncate": 1, "append": 1, "separator": 1, "flip": 1}
BASE = {
    "area_csv": "areas.csv",
    "edge_list": "edges.txt",
    "covariate_columns": "tax_poverty_rate,nonfiler_rate,foodstamp_rate",
    "group_column": "group",
    "benchmark_weight_column": "benchmark_weight",
    "benchmark_target": "15.0",
    "gibbs_iterations": "300",
    "gibbs_burn": "100",
    "bootstrap_replicates": "10",
    "seed": "1",
    "output_dir": "out",
}
GAMMAS = ({"gamma_grid": "0.01,100,5"}, {"gamma": "0.5"})
SOLVE_TOL = 1e-8  # largest gap to the KKT solution, over 1 + its largest |entry|
RESIDUAL_TOL = 1e-8  # ||M d - t||_inf <= RESIDUAL_TOL (1 + ||t||_inf), the package's bound


def mutate(data: bytes, separator: bytes, rng: random.Random) -> tuple[bytes, str]:
    """``data``, a file's bytes, with one seeded mutation, and what it was.
    ``separator`` splits a line into the cells a value replaces: ``,`` in
    the CSV and the edge list, ``=`` in the config."""
    kind = rng.choices(list(MUTATIONS), list(MUTATIONS.values()))[0]
    if kind == "flip":
        at, bit = rng.randrange(len(data)), rng.randrange(8)
        flipped = bytearray(data)
        flipped[at] ^= 1 << bit
        return bytes(flipped), f"flip bit {bit} of byte {at}"
    lines = data.split(b"\n")
    i = rng.randrange(len(lines))
    line = lines[i]
    if kind == "value":
        value = rng.choice(VALUES)
        cells = line.split(separator)
        j = rng.randrange(len(cells))
        cells[j] = value.encode()
        lines[i] = separator.join(cells)
        what = f"cell {j} of line {i} = {value!r}"
    elif kind == "delete":
        del lines[i]
        what = f"delete line {i}"
    elif kind == "duplicate":
        lines.insert(i, line)
        what = f"duplicate line {i}"
    elif kind == "truncate":
        cut = rng.randrange(len(line) + 1)
        lines[i] = line[:cut]
        what = f"truncate line {i} to {cut} bytes"
    elif kind == "append":
        tail = rng.choice((b",", b"=", b"#"))
        lines[i] = line + tail
        what = f"append {tail.decode()!r} to line {i}"
    else:
        other = rng.choice([s for s in (b",", b";", b"=", b"\t", b" ") if s != separator])
        lines[i] = line.replace(separator, other)
        what = f"line {i}'s {separator.decode()!r} to {other.decode()!r}"
    return b"\n".join(lines), what


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def report_problems(argv: list[str]) -> list[str]:
    """What the report of a run of ``cli.main(argv)`` that exited 0 gets
    wrong, checked without the package's solvers.  The config (with the
    command's flags), the area CSV and the edge list are read by the
    package's readers, as the run read them; omega is assembled here from
    the edges, the estimates are compared with ``oracles.kkt_solve`` at
    the gamma in ``metadata.json``, and the constraint residual and the
    argmin of ``cv_curve.csv`` are recomputed from the written files.
    ``fit`` writes no estimate and is not checked."""
    args = cli.build_parser().parse_args(argv)
    if args.command == "fit":
        return []
    config = cli._load_config(args)
    out = Path(config.output_dir)
    gamma = json.loads((out / "metadata.json").read_text(encoding="utf-8"))["gamma"]
    problems = []
    if config.gamma_grid is not None:
        curve = _rows(out / "cv_curve.csv")
        best = float(curve[int(np.argmin([float(row["score"]) for row in curve]))]["gamma"])
        if best != gamma:
            problems.append(f"gamma {gamma!r} is not the argmin {best!r} of cv_curve.csv")
    if args.command == "cv":
        return problems
    data = load_area_csv(config.area_csv, config.schema)
    index = {label: i for i, label in enumerate(data.labels)}
    omega = np.zeros((data.m, data.m))
    for a, b, w in read_edge_list(config.edge_list):  # d' omega d = sum over ordered pairs of w (d_i - d_j)^2
        i, j = index[a], index[b]
        omega[[i, j], [j, i]] -= 2.0 * w
        omega[[i, j], [i, j]] += 2.0 * w
    est = _rows(out / "estimates.csv")
    theta, smoothed, benchmarked = (
        np.array([float(row[name]) for row in est])
        for name in ("theta_bayes", "theta_smoothed", "theta_benchmarked")
    )
    M = t = None
    if config.benchmark_target is not None:
        M = (data.benchmark_weights / data.benchmark_weights.sum())[np.newaxis, :]
        t = np.array([config.benchmark_target])
        residual = float(np.max(np.abs(M @ benchmarked - t)))
        if not residual <= RESIDUAL_TOL * (1.0 + abs(config.benchmark_target)):
            problems.append(f"constraint residual {residual:.3e} exceeds its bound")
    for name, values, want in (
        ("theta_smoothed", smoothed, kkt_solve(theta, data.phi, omega, gamma)),
        ("theta_benchmarked", benchmarked, kkt_solve(theta, data.phi, omega, gamma, M, t)),
    ):
        gap = float(np.max(np.abs(values - want)) / (1.0 + np.max(np.abs(want))))
        if not gap <= SOLVE_TOL:
            problems.append(f"{name} is {gap:.3e} away from the KKT solution")
    return problems


def run_case(seed: int, work: Path) -> tuple[str, str, int | str]:
    """Case ``seed`` in the fresh directory ``work``: its command, its
    mutations, and the exit code, the exception that escaped, or what
    :func:`report_problems` found in the report of a run that exited 0."""
    rng = random.Random(seed)
    settings = {**BASE, **rng.choice(GAMMAS)}
    files = {
        "areas.csv": synthetic_dataset_path().read_bytes(),
        "edges.txt": us_state_borders_path().read_bytes(),
        "run.cfg": "".join(f"{k} = {v}\n" for k, v in settings.items()).encode(),
    }
    done = []
    for _ in range(rng.randint(1, 2)):
        name = rng.choice(sorted(files))
        files[name], what = mutate(files[name], b"=" if name == "run.cfg" else b",", rng)
        done.append(f"{name}: {what}")
    work.mkdir(parents=True)
    for name, data in files.items():
        (work / name).write_bytes(data)
    command = rng.choice(COMMANDS)
    argv = [command, "--config", str(work / "run.cfg"), "--out", str(work / "out")]
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        try:
            outcome = cli.main(argv)
        except (Exception, SystemExit) as exc:  # SystemExit: an argparse usage error
            outcome = f"{type(exc).__name__}: {exc}"
    if outcome == 0 and (problems := report_problems(argv)):
        outcome = "report: " + "; ".join(problems)
    return command, "; ".join(done), outcome


def broken(outcome: int | str) -> bool:
    """Whether a case's outcome breaks the contract."""
    return outcome not in (0, 2, 3)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cases", type=int, default=1000, help="number of cases (default 1000)")
    parser.add_argument("--first-seed", type=int, default=0, help="seed of the first case (default 0)")
    args = parser.parse_args(argv)
    tally = collections.Counter()
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(args.first_seed, args.first_seed + args.cases):
            command, what, outcome = run_case(seed, Path(tmp) / str(seed))
            shutil.rmtree(Path(tmp) / str(seed))
            tally[command, outcome if not broken(outcome) else "broken"] += 1
            if broken(outcome):
                failures += 1
                print(f"seed {seed}: {command}: {what}: {outcome}")
    for (command, outcome), n in sorted(tally.items(), key=str):
        print(f"{command:9s} {outcome!s:7s} {n}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
