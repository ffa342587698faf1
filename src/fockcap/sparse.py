"""Sparse matrices, exact or floating-point.

Two storage types share one method surface (``@``, ``+``, ``-``, scalar
``*``, ``max_abs``, ``transpose``, ``get``, ``data``, ``entries``, ``apply``,
``nnz``, ``tag``):

- ``MonomialMatrix`` holds at most one nonzero entry per column, as an index
  map plus one coefficient per column.  Every operator the suites build, and
  every product a_i^+ a_j^- of a Hamiltonian, has this shape (see its
  docstring); products and sums are index compositions over Python integers.
- ``SparseMatrix`` (dict-of-keys) and ``RowReducer`` (exact rank) serve no
  passing run.  They are the oracle the kernel is tested against, and the
  fallback that keeps a wrong operator's results exact, such as a sum whose
  terms clash on a column.  ``perfbench/tracing.py`` finds both here by name.

Entries are rationals in the exact backend and floats in the orthonormal
(normalized) backend; explicit zeros are never stored.  Every matrix carries
a ``tag`` identifying the basis it acts on, so operators built for different
spaces or normalizations cannot be combined by accident.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

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

    def max_abs(self, where=None) -> Scalar:
        """Largest absolute entry; 0 for the zero matrix.  With ``where``, only
        the entries at the (r, c) where ``where(r, c)`` holds."""
        return max((abs(v) for (r, c), v in self.data.items() if where is None or where(r, c)),
                   default=0)

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.cols, self.rows,
                            {(c, r): v for (r, c), v in self.data.items()}, self.tag)

    def map_entries(self, fn, tag) -> "SparseMatrix":
        """The matrix holding fn(r, c, v) in place of each entry v at (r, c)."""
        return SparseMatrix(self.rows, self.cols,
                            {(r, c): fn(r, c, v) for (r, c), v in self.data.items()}, tag)

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


class MonomialMatrix:
    """A matrix with at most one nonzero entry per column: a partial
    permutation times a diagonal.

    The ladder operators a_i^pm, N, the e_ij, E_00 and every polynomial in
    them that the suites form have this shape.  Each shifts the weight
    (p - |v|; v) of a basis vector by a fixed root, and distinct basis vectors
    have distinct weights, so each basis vector goes to a multiple of at most
    one basis vector.

    Column c holds ``coef[c] / denom`` in row ``target[c]``.  A zero
    coefficient is no entry (a cancelled entry keeps its row as target), and
    a target of -1 always has coefficient 0.  Exact matrices keep Python-int
    coefficients over one positive integer denominator; float matrices keep
    finite float coefficients over 1.  Both lists end in one more, always
    empty, slot, so that the index -1 reads "no entry".  Plain lists, not
    numpy arrays: most operators the suites form have a few dozen columns,
    where a numpy call costs more than the loop it replaces.

    A product is then one index gather and one multiplication per column,
    ``coef = a.coef[b.target] * b.coef`` over ``a.denom * b.denom``, and a sum
    of two terms whose targets agree wherever both have one adds coefficients
    column by column.  A float entry of either is the one product, or the one
    sum of the same two numbers, that the dict-of-keys kernel forms, so float
    results are bit-identical to SparseMatrix ones.  A sum whose terms
    disagree on a column (only a wrong operator makes one) is the general
    SparseMatrix sum, so its residual is still exact.
    """

    __slots__ = ("rows", "cols", "target", "coef", "denom", "exact", "tag")

    def __init__(self, rows: int, targets: Sequence[int], coefs: Sequence[int | float],
                 denom: int = 1, tag=None):
        """Column c holds coefs[c] / denom in row targets[c]; an empty column
        has target -1 and coefficient 0.  Int coefficients make an exact
        matrix, any float a float one."""
        exact = not any(isinstance(x, float) for x in coefs)
        _fill(self, rows, [*targets, -1], [*(coefs if exact else map(float, coefs)), 0],
              denom, exact, tag)

    @staticmethod
    def identity(dim: int, tag=None) -> "MonomialMatrix":
        return MonomialMatrix(dim, range(dim), [1] * dim, 1, tag)

    @staticmethod
    def diagonal(values: Sequence[Scalar], tag=None) -> "MonomialMatrix":
        return MonomialMatrix.from_columns(len(values), range(len(values)), values, tag)

    @staticmethod
    def from_columns(rows: int, targets: Sequence[int], values: Sequence[Scalar],
                     tag=None) -> "MonomialMatrix":
        """Column c holds the rational or float values[c] in row targets[c]
        (-1, with value 0, for none); rationals share their least common
        denominator."""
        if any(isinstance(v, float) for v in values):
            return MonomialMatrix(rows, targets, values, 1, tag)
        denom = math.lcm(*(v.denominator for v in values))
        return MonomialMatrix(rows, targets, [v.numerator * (denom // v.denominator)
                                              for v in values], denom, tag)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def nnz(self) -> int:
        return self.cols + 1 - self.coef.count(0)

    def is_zero(self) -> bool:
        return not self.nnz

    def _value(self, x) -> Scalar:
        return Fraction(x, self.denom) if self.exact else x

    def _live(self) -> list[tuple[int, int, int | float]]:
        """(row, col, coefficient) of every entry, by column."""
        return [(r, c, x) for c, (r, x) in enumerate(zip(self.target, self.coef)) if x]

    def get(self, r: int, c: int) -> Scalar:
        if 0 <= c < self.cols and self.target[c] == r and self.coef[c]:
            return self._value(self.coef[c])
        return 0

    def entries(self) -> list[Entry]:
        """All nonzero entries as (row, col, value), row-major ascending."""
        return [(r, c, self._value(x)) for r, c, x in sorted(self._live())]

    @property
    def data(self) -> dict[tuple[int, int], Scalar]:
        return {(r, c): self._value(x) for r, c, x in self._live()}

    def to_sparse(self) -> SparseMatrix:
        return SparseMatrix(self.rows, self.cols, self.data, self.tag)

    def max_abs(self, where=None) -> Scalar:
        """Largest absolute entry; 0 for the zero matrix.  With ``where``, only
        the entries at the (r, c) where ``where(r, c)`` holds."""
        if where is None:
            top = max(map(abs, self.coef))
        else:
            top = max((abs(x) for r, c, x in self._live() if where(r, c)), default=0)
        return self._value(top) if top else 0

    def apply(self, vec: Mapping[int, Scalar]) -> dict[int, Scalar]:
        """Matrix-vector product on a sparse column vector."""
        out: dict[int, Scalar] = {}
        for c, x in vec.items():
            if self.coef[c]:
                r = self.target[c]
                out[r] = out.get(r, 0) + self._value(self.coef[c]) * x
        return {r: v for r, v in out.items() if v != 0}

    def transpose(self):
        target, coef = [-1] * (self.rows + 1), [self.coef[-1]] * (self.rows + 1)
        for r, c, x in self._live():
            if target[r] >= 0:  # two entries in one row
                return self.to_sparse().transpose()
            target[r], coef[r] = c, x
        return _filled(self.cols, target, coef, self.denom, self.exact, self.tag)

    def map_entries(self, fn, tag) -> "MonomialMatrix":
        """The matrix holding fn(r, c, v) in place of each entry v at (r, c)."""
        values = [0] * self.cols
        for r, c, x in self._live():
            values[c] = fn(r, c, self._value(x))
        return MonomialMatrix.from_columns(self.rows, self.target[:-1], values, tag)

    def _as_float(self) -> "MonomialMatrix":
        if not self.exact:
            return self
        return _filled(self.rows, self.target, [x / self.denom for x in self.coef], 1, False,
                       self.tag)

    def __mul__(self, scalar):
        if isinstance(scalar, (SparseMatrix, MonomialMatrix)):
            raise TypeError("use @ for matrix products")
        if isinstance(scalar, float) or not self.exact:
            if not math.isfinite(scalar):
                return self.to_sparse() * scalar
            s = float(scalar)
            return _filled(self.rows, self.target, [x * s for x in self._as_float().coef], 1,
                           False, self.tag)
        num, den = scalar.numerator, scalar.denominator
        g = math.gcd(num, self.denom)
        k = num // g
        return _filled(self.rows, self.target, [x * k for x in self.coef], self.denom // g * den,
                       True, self.tag)

    __rmul__ = __mul__

    def __neg__(self) -> "MonomialMatrix":
        return _filled(self.rows, self.target, [-x for x in self.coef], self.denom, self.exact,
                       self.tag)

    def __matmul__(self, other):
        if not isinstance(other, MonomialMatrix):
            return self.to_sparse() @ other
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        tag = _combine_tags(self.tag, other.tag)
        a, b = _same_kind(self, other)
        at, ac, src = a.target, a.coef, b.target
        return _filled(a.rows, [at[s] for s in src], [ac[s] * x for s, x in zip(src, b.coef)],
                       a.denom * b.denom, a.exact, tag)

    def __add__(self, other):
        return self._plus(other, +1, _combine_tags(self.tag, other.tag))

    def __sub__(self, other):
        return self._plus(other, -1, _combine_tags(self.tag, other.tag))

    def _plus(self, other, sign: int, tag):
        """self + sign*other carrying ``tag``."""
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        if isinstance(other, MonomialMatrix):
            # the common target of each column; -2 where both have one and they differ
            target = [x if x == y or y < 0 else y if x < 0 else -2
                      for x, y in zip(self.target, other.target)]
            if -2 not in target:
                a, b = _same_kind(self, other)
                ca, cb, denom = a.coef, b.coef, a.denom
                if a.denom != b.denom:
                    denom = math.lcm(a.denom, b.denom)
                    ka, kb = denom // a.denom, denom // b.denom
                    ca, cb = [x * ka for x in ca], [y * kb for y in cb]
                coef = ([x + y for x, y in zip(ca, cb)] if sign > 0
                        else [x - y for x, y in zip(ca, cb)])
                return _filled(self.rows, target, coef, denom, a.exact, tag)
        a = SparseMatrix(self.rows, self.cols, self.data)
        b = SparseMatrix(other.rows, other.cols, other.data)
        out = a + b if sign > 0 else a - b
        out.tag = tag
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, (SparseMatrix, MonomialMatrix)):
            return NotImplemented
        return self.shape == other.shape and self.data == other.data

    __hash__ = None

    def __repr__(self) -> str:
        return f"MonomialMatrix({self.rows}x{self.cols}, nnz={self.nnz}, tag={self.tag!r})"


def _fill(m: MonomialMatrix, rows: int, target: list[int], coef: list, denom: int,
          exact: bool, tag) -> MonomialMatrix:
    m.rows, m.cols, m.target, m.coef = rows, len(target) - 1, target, coef
    m.denom, m.exact, m.tag = denom, exact, tag
    return m


def _filled(rows: int, target: list[int], coef: list, denom: int, exact: bool,
            tag) -> MonomialMatrix:
    """A MonomialMatrix on lists that already end in the empty slot."""
    return _fill(object.__new__(MonomialMatrix), rows, target, coef, denom, exact, tag)


def _same_kind(a: MonomialMatrix, b: MonomialMatrix) -> tuple[MonomialMatrix, MonomialMatrix]:
    """Both exact, or both float (an exact factor converted)."""
    if a.exact == b.exact:
        return a, b
    return a._as_float(), b._as_float()


def max_entry_difference(a, b) -> Scalar:
    """Sup-norm of a - b over the union of stored entries."""
    if isinstance(a, MonomialMatrix):
        return a._plus(b, -1, None).max_abs()
    a._check_shape(b)
    keys = set(a.data) | set(b.data)
    return max((abs(a.get(r, c) - b.get(r, c)) for r, c in keys), default=0)


def bracket(x, y, anti: bool = False):
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


def orbit_ranks(generators: Sequence, seeds: Sequence[int], dim: int) -> list[int]:
    """For each seed, the dimension of the smallest subspace that contains
    basis vector ``seed`` and is invariant under every generator.

    If every generator is a MonomialMatrix, this is the number of indices
    reachable from the seed along nonzero entries.  Proof: that subspace is
    the span of the words in the generators applied to e_seed.  A monomial
    generator sends a multiple of one basis vector to a multiple of one basis
    vector (or to 0), so each word sends e_seed to c*e_t, where t is the end
    of the word's path from the seed and c is the product of the coefficients
    along it; c != 0 exactly when every step of the path is a nonzero entry.
    The span of these c*e_t is the span of the distinct e_t reached, and
    distinct basis vectors are independent.  Generators with two entries in a column
    break the first step, so they keep the exact rank: breadth-first images
    with a RowReducer per seed, the new vectors of every seed's orbit at one
    level being the columns of one matrix, so a level costs one product per
    generator.
    """
    if all(isinstance(op, MonomialMatrix) for op in generators):
        return _reachable_counts([[r if x else -1 for r, x in zip(op.target, op.coef)]
                                  for op in generators], seeds)
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


def _reachable_counts(targets: Sequence[Sequence[int]], seeds: Sequence[int]) -> list[int]:
    """For each seed, how many indices the index maps reach from it (itself
    included).  Breadth-first per seed, with the reached set as a bit mask; a
    seed already walked contributes its whole set at once, so seeds that
    reach each other, such as a grade block under the e_ij, cost one walk."""
    walked: dict[int, int] = {}
    counts = []
    for seed in seeds:
        reached, frontier = 1 << seed, [seed]
        while frontier:
            found = []
            for v in frontier:
                for target in targets:
                    w = target[v]
                    if w >= 0 and not reached >> w & 1:
                        if w in walked:
                            reached |= walked[w]
                        else:
                            reached |= 1 << w
                            found.append(w)
            frontier = found
        walked[seed] = reached
        counts.append(reached.bit_count())
    return counts

