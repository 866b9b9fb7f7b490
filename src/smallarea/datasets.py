"""CSV tables, area CSV ingestion, bundled fixtures and the synthetic generator.

Every CSV table the package writes or reads goes through ``_write_table``
and ``_read_table``: UTF-8, a header row, ``\\n`` line endings and floats
with 17 significant digits (``inf`` included), so a table loads back
exactly.  ``_read_table`` gets its text from the package's one input
reader, :func:`smallarea.exceptions._read_input`, so a missing, unreadable
or non-UTF-8 area CSV or report file is a ValidationError naming it, as
are a repeated header name and a file ``_write_table`` cannot write.
:func:`load_area_csv` and :func:`write_area_csv` read and write the
per-area format described by a :class:`CsvSchema`.

Two fixtures ship with the package: the public US state border list (50
states plus DC, postal codes, one edge per line) and a 51-area synthetic
dataset shaped like a state-level poverty-rate survey, produced by
:func:`synthetic_saipe_like` under a fixed seed.  The synthetic data
stands in for survey microdata that cannot be redistributed.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path
from typing import Iterable

import numpy as np

from .exceptions import ValidationError, _read_input
from .fay_herriot import AreaDataset
from .similarity import build_omega, load_adjacency, read_edge_list

__all__ = [
    "CsvSchema",
    "FIXTURE_SCHEMA",
    "FIXTURE_SEED",
    "US_CENSUS_REGIONS",
    "US_STATE_LABELS",
    "load_area_csv",
    "synthetic_dataset_path",
    "synthetic_saipe_like",
    "us_state_borders_path",
    "write_area_csv",
]


def _fmt(x: float) -> str:
    """Fixed 17-significant-digit float formatting (round-trips float64)."""
    return format(float(x), ".17g")


def _write_table(path: Path, columns: dict) -> None:
    """Write equal-length named columns: strings as they are, all else via
    :func:`_fmt`.  A file that cannot be written is a ValidationError naming it."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(
                [v if isinstance(v, str) else _fmt(v) for v in row]
                for row in zip(*columns.values(), strict=True)
            )
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from None


class _Table(dict):
    """Columns of the CSV file ``path`` by name, as raw strings; ``lines``
    holds the line number of each data row in the file."""

    path: str | Path
    lines: list[int]

    def floats(self, column: str) -> np.ndarray:
        """One column as floats.  A cell that does not parse is a
        ValidationError naming its column, row (its line) and file."""
        values = []
        for row, raw in zip(self.lines, self[column], strict=True):
            try:
                values.append(float(raw))
            except (TypeError, ValueError):
                raise ValidationError(
                    f"non-numeric value {raw!r} in column {column!r}, row {row} of {self.path}"
                ) from None
        return np.array(values)


def _read_table(path: str | Path, what: str, required: Iterable[str] = ()) -> _Table:
    """Columns of CSV input file ``what`` with a header row, skipping blank
    lines.  A header name that repeats, a ``required`` column that is
    absent, or a row whose cell count differs from the header's, is a
    ValidationError naming it."""
    reader = csv.reader(io.StringIO(_read_input(path, what), newline=""))
    header = next(reader, [])
    for j, name in enumerate(header):
        if name in header[:j]:
            raise ValidationError(f"repeated column {name!r} in {path}")
    for name in required:
        if name not in header:
            raise ValidationError(f"missing column {name!r} in {path}")
    rows, lines = [], []
    for row in reader:
        if not row:
            continue  # blank line
        if len(row) != len(header):
            raise ValidationError(
                f"{path}:{reader.line_num}: expected {len(header)} cells, got {len(row)}"
            )
        rows.append(row)
        lines.append(reader.line_num)
    table = _Table((name, [row[j] for row in rows]) for j, name in enumerate(header))
    table.path, table.lines = path, lines
    return table


@dataclass(frozen=True)
class CsvSchema:
    """Column-name mapping for area CSV files.

    ``covariates`` must name at least one column.  When ``phi`` is absent
    the loader defaults the loss weights to 1/D, the inverse sampling
    variance (all D must then be positive).
    """

    label: str = "label"
    y: str = "y"
    d: str = "D"
    covariates: tuple[str, ...] = ()
    phi: str | None = None
    benchmark_weight: str | None = None
    group: str | None = None
    add_intercept: bool = True

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        if len(self.covariates) == 0:
            raise ValidationError("schema must name at least one covariate column")


def load_area_csv(path: str | Path, schema: CsvSchema) -> AreaDataset:
    """Read and validate an area-level CSV into an AreaDataset.

    Row order defines area indexing and must match the label universe of
    any edge list used alongside.  Missing columns, non-numeric cells
    (reported with row and column), negative D, a D whose reciprocal is
    not finite when no phi column gives the loss weights, and duplicate
    labels are all rejected.
    """
    needed = [schema.label, schema.y, schema.d, *schema.covariates]
    needed += [c for c in (schema.phi, schema.benchmark_weight, schema.group) if c is not None]
    table = _read_table(path, "area CSV", needed)
    if not table[schema.label]:
        raise ValidationError(f"area CSV {path} has no data rows")
    labels = tuple(table[schema.label])
    y = table.floats(schema.y)
    D = table.floats(schema.d)
    cov = np.column_stack([table.floats(c) for c in schema.covariates])
    if schema.phi is not None:
        phi = table.floats(schema.phi)
    elif not np.all(np.isfinite(D) & (D >= 0)):
        phi = None  # let the dataset's own checks report the non-finite or negative variance
    else:
        with np.errstate(divide="ignore", over="ignore"):  # D = 0 or subnormal: refused below
            phi = 1.0 / D
        if not np.isfinite(phi).all():
            i = int(np.argmin(np.isfinite(phi)))
            raise ValidationError(
                f"cannot default loss weights to 1/D at area {labels[i]!r}, where "
                f"{schema.d} = {float(D[i])!r} has no finite reciprocal; supply a phi column"
            )
    weights = None if schema.benchmark_weight is None else table.floats(schema.benchmark_weight)
    groups = None if schema.group is None else tuple(table[schema.group])
    return AreaDataset(
        labels=labels,
        y=y,
        D=D,
        covariates=cov,
        covariate_names=schema.covariates,
        intercept=schema.add_intercept,
        groups=groups,
        phi=phi,
        benchmark_weights=weights,
    )


def write_area_csv(data: AreaDataset, path: str | Path, schema: CsvSchema | None = None) -> Path:
    """Write an AreaDataset back to CSV (17-digit floats, exact round trip)."""
    if schema is None:
        schema = CsvSchema(
            covariates=data.covariate_names,
            phi="phi" if data.phi is not None else None,
            benchmark_weight="benchmark_weight" if data.benchmark_weights is not None else None,
            group="group" if data.groups is not None else None,
            add_intercept=data.intercept,
        )
    columns = {schema.label: data.labels, schema.y: data.y, schema.d: data.D}
    columns.update(zip(schema.covariates, data.covariates.T, strict=True))
    for name, values in (
        (schema.phi, data.phi),
        (schema.benchmark_weight, data.benchmark_weights),
        (schema.group, data.groups),
    ):
        if name is not None:
            columns[name] = values
    path = Path(path)
    _write_table(path, columns)
    return path


US_STATE_LABELS: tuple[str, ...] = (
    "AK", "AL", "AR", "AZ", "CA", "CO", "CT", "DC", "DE", "FL", "GA", "HI",
    "IA", "ID", "IL", "IN", "KS", "KY", "LA", "MA", "MD", "ME", "MI", "MN",
    "MO", "MS", "MT", "NC", "ND", "NE", "NH", "NJ", "NM", "NV", "NY", "OH",
    "OK", "OR", "PA", "RI", "SC", "SD", "TN", "TX", "UT", "VA", "VT", "WA",
    "WI", "WV", "WY",
)

_REGIONS = {
    "Northeast": ("CT", "MA", "ME", "NH", "NJ", "NY", "PA", "RI", "VT"),
    "Midwest": ("IA", "IL", "IN", "KS", "MI", "MN", "MO", "ND", "NE", "OH", "SD", "WI"),
    "South": ("AL", "AR", "DC", "DE", "FL", "GA", "KY", "LA", "MD", "MS",
              "NC", "OK", "SC", "TN", "TX", "VA", "WV"),
    "West": ("AK", "AZ", "CA", "CO", "HI", "ID", "MT", "NM", "NV", "OR",
             "UT", "WA", "WY"),
}

US_CENSUS_REGIONS: dict[str, str] = {
    state: region for region, states in _REGIONS.items() for state in states
}

FIXTURE_SEED = 7

FIXTURE_SCHEMA = CsvSchema(
    covariates=("tax_poverty_rate", "nonfiler_rate", "foodstamp_rate"),
    benchmark_weight="benchmark_weight",
    group="group",
)


def us_state_borders_path() -> Path:
    """Path to the bundled US state border edge list."""
    return Path(str(files("smallarea").joinpath("data", "us_state_borders.txt")))


def synthetic_dataset_path() -> Path:
    """Path to the bundled 51-area synthetic dataset CSV."""
    return Path(str(files("smallarea").joinpath("data", "synthetic_states.csv")))


def synthetic_saipe_like(seed: int = FIXTURE_SEED) -> AreaDataset:
    """Generate a 51-area dataset shaped like a state poverty-rate survey.

    Covariates mimic administrative predictors (a tax-based poverty
    pseudo-estimate, a non-filer rate, a food-assistance rate) and are
    drawn as smooth random fields over the state border graph, so
    neighboring states resemble each other the way real state-level
    predictors do.  Responses follow the two-level normal model with a
    graph-correlated area effect and sampling variances that shrink with
    a population-like size variable.  That size variable doubles as the
    benchmark weight column, and each state carries its census region as
    the group label.  The bundled CSV is this function's output at the
    default seed.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    m = len(US_STATE_LABELS)
    edges = read_edge_list(us_state_borders_path())
    laplacian = 0.5 * build_omega(load_adjacency(edges, US_STATE_LABELS)).omega
    # unit-variance draws from a Markov random field on the border graph
    prec_chol = np.linalg.cholesky(np.eye(m) + 2.0 * laplacian)

    def smooth_field() -> np.ndarray:
        f = np.linalg.solve(prec_chol.T, rng.standard_normal(m))
        return f / f.std()

    child_pop = np.round(rng.lognormal(mean=6.3, sigma=0.9, size=m), 1)
    tax_poverty = np.clip(13.0 + 4.0 * smooth_field(), 3.0, 30.0)
    nonfiler = np.clip(11.0 + 3.5 * smooth_field(), 3.0, 25.0)
    foodstamp = np.clip(0.5 * tax_poverty + 2.0 + 1.5 * smooth_field(), 1.0, 25.0)

    beta = np.array([2.5, 0.55, 0.25, 0.35])
    sigma_u = 1.3
    X = np.column_stack([np.ones(m), tax_poverty, nonfiler, foodstamp])
    theta = X @ beta + sigma_u * smooth_field()

    D = np.clip(900.0 / child_pop, 0.2, 8.0)
    y = theta + np.sqrt(D) * rng.standard_normal(m)

    return AreaDataset(
        labels=US_STATE_LABELS,
        y=y,
        D=D,
        covariates=np.column_stack([tax_poverty, nonfiler, foodstamp]),
        covariate_names=FIXTURE_SCHEMA.covariates,
        intercept=True,
        groups=tuple(US_CENSUS_REGIONS[s] for s in US_STATE_LABELS),
        benchmark_weights=child_pop,
    )
