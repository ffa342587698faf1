"""Sparse matrices with dict-of-keys storage, exact or floating-point.

Entries are Fractions in the exact backend and floats in the orthonormal
(normalized) backend; explicit zeros are never stored.  Every matrix carries
a ``tag`` identifying the basis it acts on, so operators built for different
spaces or normalizations cannot be combined by accident.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

Scalar = Fraction | float | int
Entry = tuple[int, int, Scalar]


def _combine_tags(a, b):
    if a is not None and b is not None and a != b:
        raise ValueError(f"basis tag mismatch: {a!r} vs {b!r}")
    return a if a is not None else b


class SparseMatrix:
    """Immutable-by-convention sparse matrix keyed by (row, col)."""

    __slots__ = ("rows", "cols", "data", "tag")

    def __init__(self, rows: int, cols: int,
                 data: Mapping[tuple[int, int], Scalar] | None = None,
                 tag=None):
        self.rows = rows
        self.cols = cols
        self.data = {} if data is None else {k: v for k, v in data.items() if v != 0}
        self.tag = tag

    @staticmethod
    def identity(dim: int, tag=None) -> "SparseMatrix":
        return SparseMatrix(dim, dim, {(i, i): Fraction(1) for i in range(dim)}, tag)

    @staticmethod
    def diagonal(values: Sequence[Scalar], tag=None) -> "SparseMatrix":
        d = len(values)
        return SparseMatrix(d, d, {(i, i): v for i, v in enumerate(values)}, tag)

    def get(self, r: int, c: int) -> Scalar:
        return self.data.get((r, c), 0)

    def entries(self) -> list[Entry]:
        """All nonzero entries as (row, col, value), row-major ascending."""
        return [(r, c, self.data[(r, c)]) for r, c in sorted(self.data)]

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        self._check_shape(other)
        out = dict(self.data)
        for k, v in other.data.items():
            out[k] = out.get(k, 0) + v
        return SparseMatrix(self.rows, self.cols, out, _combine_tags(self.tag, other.tag))

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + (-other)

    def __neg__(self) -> "SparseMatrix":
        return SparseMatrix(self.rows, self.cols,
                            {k: -v for k, v in self.data.items()}, self.tag)

    def __mul__(self, scalar) -> "SparseMatrix":
        if isinstance(scalar, SparseMatrix):
            raise TypeError("use @ for matrix products")
        return SparseMatrix(self.rows, self.cols,
                            {k: v * scalar for k, v in self.data.items()}, self.tag)

    __rmul__ = __mul__

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        tag = _combine_tags(self.tag, other.tag)
        by_row: dict[int, list[tuple[int, Scalar]]] = {}
        for (r, c), v in other.data.items():
            by_row.setdefault(r, []).append((c, v))
        out: dict[tuple[int, int], Scalar] = {}
        for (r, k), va in self.data.items():
            for c, vb in by_row.get(k, ()):
                key = (r, c)
                prev = out.get(key)
                out[key] = va * vb if prev is None else prev + va * vb
        return SparseMatrix(self.rows, other.cols, out, tag)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.shape == other.shape and self.data == other.data)

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.data)}, tag={self.tag!r})"

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def is_zero(self) -> bool:
        return not self.data

    def max_abs(self) -> Scalar:
        """Largest absolute entry; 0 for the zero matrix."""
        return max((abs(v) for v in self.data.values()), default=0)

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.cols, self.rows,
                            {(c, r): v for (r, c), v in self.data.items()}, self.tag)

    def apply(self, vec: Mapping[int, Scalar]) -> dict[int, Scalar]:
        """Matrix-vector product on a sparse column vector (a one-column @)."""
        column = SparseMatrix(self.cols, 1, {(c, 0): x for c, x in vec.items()})
        return {r: v for (r, _), v in (self @ column).data.items()}

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        for (r, c), v in self.data.items():
            dense[r, c] = float(v)
        return dense

    def _check_shape(self, other: "SparseMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")


def max_entry_difference(a: SparseMatrix, b: SparseMatrix) -> Scalar:
    """Sup-norm of a - b over the union of stored entries."""
    a._check_shape(b)
    keys = set(a.data) | set(b.data)
    return max((abs(a.get(r, c) - b.get(r, c)) for r, c in keys), default=0)


def bracket(x: SparseMatrix, y: SparseMatrix, anti: bool = False) -> SparseMatrix:
    """The anticommutator x@y + y@x if anti, else the commutator x@y - y@x."""
    return x @ y + y @ x if anti else x @ y - y @ x


class RowReducer:
    """Incremental Gaussian elimination over the rationals.

    Rows are sparse dicts index -> Fraction.  add() reduces the candidate
    against the stored pivot rows and keeps it iff it enlarges the span.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.pivots: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, vec: Mapping[int, Scalar]) -> bool:
        v = self._reduce(vec)
        if not v:
            return False
        lead = min(v)
        scale = v[lead]
        self.pivots[lead] = {k: x / scale for k, x in v.items()}
        return True

    def contains(self, vec: Mapping[int, Scalar]) -> bool:
        return not self._reduce(vec)

    def _reduce(self, vec: Mapping[int, Scalar]) -> dict[int, Fraction]:
        """What is left of vec after eliminating against the pivot rows: empty
        iff vec lies in the span, else its lowest index has no pivot yet."""
        v = {k: Fraction(x) for k, x in vec.items() if x != 0}
        while v:
            lead = min(v)
            pivot_row = self.pivots.get(lead)
            if pivot_row is None:
                break
            factor = v[lead]
            for k, x in pivot_row.items():
                nv = v.get(k, Fraction(0)) - factor * x
                if nv:
                    v[k] = nv
                else:
                    v.pop(k, None)
        return v


def orbit_ranks(generators: Sequence[SparseMatrix], seeds: Sequence[int], dim: int) -> list[int]:
    """For each seed, the dimension of the smallest subspace that contains
    basis vector ``seed`` and is invariant under every generator.

    Breadth-first images with an exact rank per seed.  The new vectors of every
    seed's orbit at one level are the columns of one matrix, so a level costs
    one product per generator.
    """
    reducers = [RowReducer(dim) for _ in seeds]
    frontier = [(owner, {seed: Fraction(1)}) for owner, seed in enumerate(seeds)]
    for owner, vec in frontier:
        reducers[owner].add(vec)
    while frontier:
        block = SparseMatrix(dim, len(frontier), {(r, c): x for c, (_, vec) in enumerate(frontier)
                                                  for r, x in vec.items()})
        new_frontier = []  # (seed position, vector) pairs that enlarged their orbit's span
        for op in generators:
            images: dict[int, dict[int, Scalar]] = {}
            for (r, c), x in (op @ block).data.items():
                images.setdefault(c, {})[r] = x
            for c in sorted(images):
                owner = frontier[c][0]
                if reducers[owner].add(images[c]):
                    new_frontier.append((owner, images[c]))
        frontier = new_frontier
    return [reducer.rank for reducer in reducers]


def rational_rank(vectors: Iterable[Mapping[int, Scalar]], dim: int) -> int:
    """Rank of a family of sparse rational vectors, computed exactly."""
    reducer = RowReducer(dim)
    for v in vectors:
        reducer.add(v)
    return reducer.rank
