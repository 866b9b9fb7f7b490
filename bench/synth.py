"""Workload inputs for the benchmark: files only, generated from a seed.

Each workload is written as the files a user would hand to ``smallarea run``:
an area CSV, an edge list, optional benchmark matrix/targets, and a config
file whose paths are relative to itself.  The pipeline sees nothing else.
The same (workload, seed) always yields byte-identical files.

``fixture51`` copies the bundled 51-state fixture and uses the
acceptance-criterion-9 settings.  The lattice workloads come from
:func:`lattice_inputs`, which scales the construction of
``smallarea.datasets.synthetic_saipe_like`` from the state border graph to
an r x c lattice plus isolated areas.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

COVARIATES = ("tax_poverty_rate", "nonfiler_rate", "foodstamp_rate")
FIXTURE_DIR = Path("src") / "smallarea" / "data"

# Gibbs settings of acceptance criterion 9, shared by every workload so
# that per-iteration costs compare across workloads.
_GIBBS = {
    "gibbs_iterations": "4000",
    "gibbs_burn": "1000",
    "bootstrap_gibbs_iterations": "1500",
    "bootstrap_gibbs_burn": "400",
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its inputs and the pipeline settings."""

    name: str
    why: str
    rows: int = 0  # 0 selects the bundled 51-state fixture
    cols: int = 0
    isolated: int = 0
    benchmark: str = "none"  # "weighted-mean", "two-rows" or "none"
    gamma: str = ""  # fixed smoothing factor, or "" for cross-validation
    gamma_grid: str = ""
    bootstrap_replicates: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fixture51",
            why="the shipped 51-state criterion-9 run; Gibbs and the bootstrap do nearly all its work",
            benchmark="weighted-mean",
            gamma_grid="0.0001,100,40",
            bootstrap_replicates=200,
        ),
        Workload(
            name="lattice200-cv",
            why="m=200 lattice, two benchmark rows, CV and no bootstrap; LOO selection does nearly all the work",
            rows=14,
            cols=14,
            isolated=4,
            benchmark="two-rows",
            gamma_grid="0.001,100,6",
        ),
        Workload(
            name="lattice1000-fixed",
            why="m=1000 lattice, fixed gamma, small bootstrap; dense O(m^3) solves and large draw arrays",
            rows=32,
            cols=31,
            isolated=8,
            gamma="0.5",
            bootstrap_replicates=8,
        ),
    )
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def lattice_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    """4-neighbour edges of an r x c lattice, areas numbered row-major."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    return edges


@dataclass(frozen=True)
class LatticeData:
    labels: tuple[str, ...]
    edges: list[tuple[int, int]]
    y: np.ndarray
    D: np.ndarray
    covariates: np.ndarray
    population: np.ndarray
    groups: tuple[str, ...]


def lattice_inputs(rows: int, cols: int, isolated: int, seed: int) -> LatticeData:
    """Synthetic areas on an r x c lattice plus ``isolated`` edgeless areas.

    Covariates and the area effect are unit-variance draws from the Markov
    random field with precision I + 2L over the lattice Laplacian L, as in
    ``synthetic_saipe_like``; sampling variances shrink with a lognormal
    population-like size, which is also the benchmark weight.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    m = rows * cols + isolated
    edges = lattice_edges(rows, cols)
    laplacian = np.zeros((m, m))
    for i, j in edges:
        laplacian[i, j] = laplacian[j, i] = -1.0
        laplacian[i, i] += 1.0
        laplacian[j, j] += 1.0
    prec_chol = np.linalg.cholesky(np.eye(m) + 2.0 * laplacian)

    def smooth_field() -> np.ndarray:
        f = np.linalg.solve(prec_chol.T, rng.standard_normal(m))
        return f / f.std()

    population = np.round(rng.lognormal(mean=6.3, sigma=0.9, size=m), 1)
    tax_poverty = np.clip(13.0 + 4.0 * smooth_field(), 3.0, 30.0)
    nonfiler = np.clip(11.0 + 3.5 * smooth_field(), 3.0, 25.0)
    foodstamp = np.clip(0.5 * tax_poverty + 2.0 + 1.5 * smooth_field(), 1.0, 25.0)
    X = np.column_stack([np.ones(m), tax_poverty, nonfiler, foodstamp])
    theta = X @ np.array([2.5, 0.55, 0.25, 0.35]) + 1.3 * smooth_field()
    D = np.clip(900.0 / population, 0.2, 8.0)
    y = theta + np.sqrt(D) * rng.standard_normal(m)
    # four lattice quadrants as regions; isolated areas form their own group
    groups = tuple(
        f"R{2 * (2 * (i // cols) >= rows) + (2 * (i % cols) >= cols)}" if i < rows * cols else "ISO"
        for i in range(m)
    )
    return LatticeData(
        labels=tuple(f"A{i:04d}" for i in range(m)),
        edges=edges,
        y=y,
        D=D,
        covariates=np.column_stack([tax_poverty, nonfiler, foodstamp]),
        population=population,
        groups=groups,
    )


def _write_lattice(data: LatticeData, work: Path) -> None:
    header = ["label", "y", "D", *COVARIATES, "benchmark_weight", "group"]
    lines = [",".join(header)]
    for i, lab in enumerate(data.labels):
        row = [lab, _fmt(data.y[i]), _fmt(data.D[i]), *(_fmt(v) for v in data.covariates[i])]
        lines.append(",".join(row + [_fmt(data.population[i]), data.groups[i]]))
    (work / "areas.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    edges = [f"{data.labels[i]},{data.labels[j]}" for i, j in data.edges]
    (work / "edges.txt").write_text("\n".join(edges) + "\n", encoding="utf-8")


def two_row_benchmark(data: LatticeData) -> tuple[np.ndarray, np.ndarray]:
    """Population-weighted means over all areas and over region R0, each
    pinned to the weighted mean of the direct estimates."""
    all_rows = data.population / data.population.sum()
    in_r0 = np.array([g == "R0" for g in data.groups]) * data.population
    M = np.vstack([all_rows, in_r0 / in_r0.sum()])
    return M, M @ data.y


def write_workload(workload: Workload, seed: int, work: Path, root: Path) -> Path:
    """Write the workload's input files into ``work``; return the config path.

    ``root`` is the checkout holding ``src/smallarea/data`` for the fixture.
    """
    work.mkdir(parents=True, exist_ok=True)
    cfg = {
        "area_csv": "areas.csv",
        "edge_list": "edges.txt",
        "covariate_columns": ",".join(COVARIATES),
        "group_column": "group",
    }
    if workload.rows == 0:
        shutil.copyfile(root / FIXTURE_DIR / "synthetic_states.csv", work / "areas.csv")
        shutil.copyfile(root / FIXTURE_DIR / "us_state_borders.txt", work / "edges.txt")
    else:
        data = lattice_inputs(workload.rows, workload.cols, workload.isolated, seed)
        _write_lattice(data, work)
    if workload.benchmark == "weighted-mean":
        cfg["benchmark_weight_column"] = "benchmark_weight"
        cfg["benchmark_target"] = "15.0"
    elif workload.benchmark == "two-rows":
        M, t = two_row_benchmark(data)
        (work / "bench_matrix.csv").write_text(
            "".join(",".join(_fmt(v) for v in row) + "\n" for row in M), encoding="utf-8"
        )
        (work / "bench_targets.csv").write_text("".join(_fmt(v) + "\n" for v in t), encoding="utf-8")
        cfg["benchmark_matrix_csv"] = "bench_matrix.csv"
        cfg["benchmark_targets_csv"] = "bench_targets.csv"
    if workload.gamma:
        cfg["gamma"] = workload.gamma
    else:
        cfg["gamma_grid"] = workload.gamma_grid
    cfg.update(_GIBBS)
    cfg["bootstrap_replicates"] = str(workload.bootstrap_replicates)
    cfg["seed"] = str(seed)
    cfg["output_dir"] = "out"
    path = work / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()), encoding="utf-8")
    return path
