"""Area similarity matrices and the quadratic smoothness penalty.

A similarity value q >= 0 for a pair of areas says how strongly their
estimates should agree.  The penalty on an estimate vector d is the
weighted sum of squared differences sum_{i,j} (d_i - d_j)^2 q_ij, which
equals d' W d for the matrix W built by :func:`build_omega`.  For a 0/1
adjacency matrix, W is exactly twice the (unweighted) graph Laplacian.

:func:`read_edge_list` reads its file through the package's one input
reader, :func:`smallarea.exceptions._input_lines`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .exceptions import ValidationError, _input_lines, _integer, _matrix, _real

__all__ = [
    "SimilaritySpec",
    "SmoothnessMatrix",
    "build_omega",
    "connected_components",
    "load_adjacency",
    "read_edge_list",
]


class SimilaritySpec:
    """Symmetric, nonnegative pairwise similarities between ``size`` areas.

    Entries are (i, j, q) triples with 0-based indices.  Only one
    orientation of a pair needs to be given; if both are present they must
    agree.  Diagonal entries are accepted but ignored, since self-similarity
    contributes nothing to a squared-difference penalty.
    """

    def __init__(self, size: int, entries: Iterable[tuple[int, int, float]]):
        self._size = _integer("size", size, 1)
        pairs: dict[tuple[int, int], float] = {}
        for entry in entries:
            i, j, q = entry
            i, j = _integer("index i", i), _integer("index j", j)
            if not (0 <= i < self._size and 0 <= j < self._size):
                raise ValidationError(
                    f"index out of range at ({i}, {j}); valid range is [0, {self._size})"
                )
            q = _real(f"similarity at ({i}, {j})", q)
            if q < 0:
                raise ValidationError(f"negative similarity at ({i}, {j})")
            if i == j:
                continue
            key = (min(i, j), max(i, j))
            if key in pairs and pairs[key] != q:
                raise ValidationError(f"asymmetric similarity at {key}")
            pairs[key] = q
        self._pairs = pairs

    @classmethod
    def from_matrix(cls, q: np.ndarray) -> "SimilaritySpec":
        """Build a spec from a dense square matrix, validating symmetry."""
        arr = _matrix("similarity matrix", q)
        if arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"similarity matrix must be square, got shape {arr.shape}")
        m = arr.shape[0]
        asym = np.argwhere(np.triu(arr != arr.T, k=1))
        if len(asym):
            i, j = asym[0]
            raise ValidationError(f"asymmetric similarity at ({i}, {j})")
        rows, cols = np.nonzero(np.triu(arr, k=1))
        # run entries through __init__ so sign/finiteness checks apply
        return cls(m, zip(rows, cols, arr[rows, cols]))

    @property
    def size(self) -> int:
        return self._size

    @property
    def pairs(self) -> tuple[tuple[int, int, float], ...]:
        """Stored off-diagonal pairs as (i, j, q) with i < j, sorted."""
        return tuple((i, j, q) for (i, j), q in sorted(self._pairs.items()))

    def matrix(self) -> np.ndarray:
        """Dense symmetric similarity matrix with zero diagonal."""
        q = np.zeros((self._size, self._size))
        for (i, j), v in self._pairs.items():
            q[i, j] = v
            q[j, i] = v
        return q


@dataclass(frozen=True)
class SmoothnessMatrix:
    """Dense symmetric penalty matrix; d' omega d is the roughness of d.

    Positive semi-definite with the all-ones vector in its kernel, so
    adding a constant to every estimate leaves the penalty unchanged.
    """

    omega: np.ndarray

    def __post_init__(self):
        arr = _matrix("omega", self.omega)
        if arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"penalty matrix must be square, got shape {arr.shape}")
        if not np.array_equal(arr, arr.T):
            raise ValidationError("penalty matrix must be symmetric")
        object.__setattr__(self, "omega", arr)

    @property
    def size(self) -> int:
        return self.omega.shape[0]


def build_omega(spec: SimilaritySpec) -> SmoothnessMatrix:
    """Penalty matrix for a similarity spec.

    Constructed as the diagonal of row sums plus the diagonal of column
    sums minus twice the similarity matrix, which makes the quadratic form
    d' omega d equal the double sum of (d_i - d_j)^2 q_ij.  For 0/1
    adjacency input this is 2 (D - A), twice the graph Laplacian.
    """
    q = spec.matrix()
    totals = q.sum(axis=1) + q.sum(axis=0)
    q *= -2.0  # in place: the load stage holds one m x m array, not two
    q[np.diag_indices(spec.size)] += totals
    return SmoothnessMatrix(q)


def connected_components(spec: SimilaritySpec) -> list[list[int]]:
    """Partition area indices by positive-similarity connectivity.

    Isolated areas come back as singletons.  Components are sorted
    internally and ordered by their smallest member.
    """
    parent = list(range(spec.size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j, q in spec.pairs:
        if q > 0:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for x in range(spec.size):
        groups.setdefault(find(x), []).append(x)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def load_adjacency(
    edge_list: Iterable[tuple], labels: Sequence[str]
) -> SimilaritySpec:
    """Turn a labeled edge list into a SimilaritySpec.

    ``labels`` fixes the index assignment: area i is labels[i].  Each edge
    is (label_i, label_j) or (label_i, label_j, weight); the default weight
    is 1.  Listing the same pair twice, in either orientation, or an edge
    from an area to itself is an error.
    """
    index = {}
    for pos, lab in enumerate(labels):
        if lab in index:
            raise ValidationError(f"duplicate label {lab!r} in label set")
        index[lab] = pos
    entries = []
    seen: dict[tuple[int, int], tuple[str, str]] = {}
    for edge in edge_list:
        if len(edge) not in (2, 3):
            raise ValidationError(f"edge must have 2 or 3 fields, got {edge!r}")
        a, b, w = edge if len(edge) == 3 else (*edge, 1.0)
        for lab in (a, b):
            if lab not in index:
                raise ValidationError(f"unknown label {lab!r} in edge list")
        w = _real(f"weight on edge {a}-{b}", w)
        if w < 0:
            raise ValidationError(f"negative weight on edge {a}-{b}")
        i, j = index[a], index[b]
        if i == j:
            raise ValidationError(f"self-edge {a}-{b} in edge list")
        key = (min(i, j), max(i, j))
        if key in seen:
            first_a, first_b = seen[key]
            raise ValidationError(f"duplicate edge {first_a}-{first_b}")
        seen[key] = (a, b)
        entries.append((i, j, w))
    return SimilaritySpec(len(labels), entries)


def read_edge_list(path: str | Path) -> list[tuple[str, str, float]]:
    """Parse an edge-list text file.

    One edge per line as ``label_i,label_j`` or ``label_i,label_j,weight``;
    blank lines and ``#`` comments are skipped.  Labels are case-sensitive.
    """
    edges = []
    for lineno, line in _input_lines(path, "edge list"):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) == 2:
            a, b = fields
            w = 1.0
        elif len(fields) == 3:
            a, b = fields[:2]
            try:
                w = float(fields[2])
            except ValueError:
                raise ValidationError(
                    f"{path}:{lineno}: bad weight {fields[2]!r}"
                ) from None
        else:
            raise ValidationError(
                f"{path}:{lineno}: expected 2 or 3 comma-separated fields"
            )
        if not a or not b:
            raise ValidationError(f"{path}:{lineno}: empty label")
        edges.append((a, b, w))
    return edges
