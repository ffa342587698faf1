"""Hamiltonians built from the capped ladder operators and their spectra.

The diagonal model H = sum_i eps_i a_i^+ a_i^- is assembled by exact matrix
products and stays diagonal in the occupation basis with entry

    sum_i eps_i v_i (p - |v| + 1)/p

at the basis vector v.  For two capped boson modes with unit coefficients
the closed-form levels are E_k = k - k(k-1)/p with multiplicity k+1
(k = 0..p); the gap between consecutive levels is 1 - 2k/p, so accidental
degeneracies appear and are merged exactly.  General quadratic Hamiltonians
sum_ij t_ij a_i^+ a_j^- are handled on the float (orthonormal) backend with
a symmetric eigensolver.  Both sum monomial products a_i^+ @ a_j^- (diagonal
ones never clash).  Each product keeps the total occupation, so the float sum
is scattered grade block by grade block into one small eigensolver input per
block, never into a dim x dim matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .basis import AlgebraSpec
from .operators import (EXACT, FLOAT, ORTHONORMAL, UNNORMALIZED, fock_space,
                        grade_diagonal)
from .sparse import MonomialMatrix

SYMMETRY_TOL = 1e-10
CLUSTER_TOL = 1e-9


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues with multiplicities, sorted ascending."""

    levels: tuple[tuple[Fraction | float, int], ...]
    backend: str

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.levels)

    def as_dicts(self) -> list[dict]:
        out = []
        for value, mult in self.levels:
            rendered = str(value) if isinstance(value, Fraction) else float(value)
            out.append({"value": rendered, "mult": mult})
        return out


def _products(spec: AlgebraSpec, table: Sequence[Sequence], normalization: str):
    """(t_ij, a_i^+ @ a_j^-) for every nonzero t_ij, in row-major (i, j) order."""
    space = fock_space(spec)
    for i in range(1, spec.n + 1):
        for j in range(1, spec.n + 1):
            t = table[i - 1][j - 1]
            if t != 0:
                yield t, space.ladder(i, +1, normalization) @ space.ladder(j, -1, normalization)


def _merged(pairs, denom: int = 1) -> SpectrumReport:
    """Levels value/denom of (value, multiplicity) pairs, coincident values merged, ascending."""
    counts: dict[Fraction | int, int] = {}
    for value, mult in pairs:
        counts[value] = counts.get(value, 0) + mult
    return SpectrumReport(tuple((Fraction(v, denom), m) for v, m in sorted(counts.items())), EXACT)


def diagonal_table(spec: AlgebraSpec, energies: Sequence) -> list[list]:
    """The coefficient table t_ij of H = sum_i eps_i a_i^+ a_i^-: eps_i on the
    diagonal, 0 elsewhere; one energy per mode."""
    if len(energies) != spec.n:
        raise ValueError(f"expected {spec.n} energies, got {len(energies)}")
    return [[energies[i] if i == j else 0 for j in range(spec.n)] for i in range(spec.n)]


def diagonal_hamiltonian(spec: AlgebraSpec,
                         energies: Sequence[Fraction | int]) -> MonomialMatrix:
    """Exact H = sum_i eps_i a_i^+ a_i^-, formed by matrix products."""
    table = diagonal_table(spec, [Fraction(e) for e in energies])
    zero = grade_diagonal(fock_space(spec), lambda k: 0)
    return sum((t * product for t, product in _products(spec, table, UNNORMALIZED)), zero)


def spectrum_of_diagonal(h: MonomialMatrix) -> SpectrumReport:
    """Exact spectrum of a diagonal operator; coincident values merge."""
    if h.max_abs(lambda r, c: r != c) != 0:
        raise ValueError("operator is not diagonal in the occupation basis")
    return _merged(((x, 1) for x in h.coef[:-1]), h.denom)


def diagonal_spectrum(spec: AlgebraSpec,
                      energies: Sequence[Fraction | int]) -> SpectrumReport:
    return spectrum_of_diagonal(diagonal_hamiltonian(spec, energies))


def toy_levels(p: int) -> list[tuple[int, Fraction, int, Fraction | None]]:
    """Closed-form level table (k, E_k, multiplicity, gap to next level) for
    two capped boson modes with unit coefficients."""
    if not isinstance(p, int) or p < 1:
        raise ValueError(f"cap must be a positive integer, got {p!r}")
    rows = []
    for k in range(p + 1):
        value = Fraction(k) - Fraction(k * (k - 1), p)
        gap = Fraction(1) - Fraction(2 * k, p) if k < p else None
        rows.append((k, value, k + 1, gap))
    return rows


def toy_spectrum(p: int) -> SpectrumReport:
    """Exact spectrum of H = a_1^+ a_1^- + a_2^+ a_2^- for (Bose, n=2, cap p):
    E_k = k - k(k-1)/p with multiplicity k+1, coincident levels merged."""
    return _merged((value, mult) for _, value, mult, _ in toy_levels(p))


def _cluster(values: Sequence[float], tol: float) -> tuple[tuple[float, int], ...]:
    import numpy as np

    levels: list[tuple[float, int]] = []
    cluster: list[float] = []
    for x in np.sort(values):
        if cluster and x - cluster[-1] > tol:
            levels.append((float(np.mean(cluster)), len(cluster)))
            cluster = []
        cluster.append(float(x))
    if cluster:
        levels.append((float(np.mean(cluster)), len(cluster)))
    return tuple(levels)


def quadratic_hamiltonian_spectrum(spec: AlgebraSpec,
                                   t: Sequence[Sequence[float]]) -> SpectrumReport:
    """Spectrum of H = sum_ij t_ij a_i^+ a_j^- on the orthonormal backend.

    Requires a symmetric table of finite numbers.  Every a_i^+ a_j^- keeps the
    total occupation, so H is block diagonal over the grades k = 0..p, and in
    the graded-lex basis block k is the rank range offsets[k]..offsets[k+1].
    Each block is assembled alone from the product entries in its columns,
    checked to hold finite numbers, to keep every entry inside the block and
    to be symmetric (a failure of either of the last two would indicate a
    builder bug), and only then handed to the symmetric eigensolver; no
    dim x dim matrix is formed.  The eigenvalues of all blocks are clustered
    together at CLUSTER_TOL, so a level may span grades.
    """
    import numpy as np  # here, so that only a float spectrum pays for the import

    try:
        table = np.asarray(t, dtype=float)
    except (TypeError, ValueError, OverflowError):  # a mapping, ragged rows, a huge int
        table = None
    if (table is None or table.shape != (spec.n, spec.n) or not np.isfinite(table).all()
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       for row in t for x in row)):
        raise ValueError(f"coefficient table must be {spec.n}x{spec.n} finite int or float numbers")
    if np.max(np.abs(table - table.T)) > 1e-12:
        raise ValueError("coefficient table must be symmetric")
    terms = [(t_ij, np.array(product.target[:-1]), np.array(product.coef[:-1]))
             for t_ij, product in _products(spec, table.tolist(), ORTHONORMAL)]
    offsets = fock_space(spec).offsets
    values = []
    for k, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
        h = np.zeros((hi - lo,) * 2)
        stored = []  # (rows, cols) of each product's entries, relative to the block
        with np.errstate(over="ignore", invalid="ignore"):  # refused below as beyond float range
            for t_ij, target, coef in terms:
                cols = np.flatnonzero(coef[lo:hi])
                rows = target[lo:hi][cols] - lo
                if len(rows) and not 0 <= rows.min() <= rows.max() < hi - lo:
                    raise RuntimeError(f"assembled Hamiltonian has an entry outside grade block {k}")
                h[rows, cols] += t_ij * coef[lo:hi][cols]
                stored.append((rows, cols))
            finite = all(np.isfinite(h[r, c]).all() for r, c in stored)
            asym = max((np.abs(h[r, c] - h[c, r]).max(initial=0.0) for r, c in stored),
                       default=0.0)
        if not finite:
            raise ValueError("assembled Hamiltonian has entries beyond float range")
        if asym > SYMMETRY_TOL:
            raise RuntimeError(f"assembled Hamiltonian not symmetric (residual {asym:g})")
        values.append(np.linalg.eigvalsh(h))
    with np.errstate(over="ignore", invalid="ignore"):
        levels = _cluster(np.concatenate(values), CLUSTER_TOL)
    if not all(math.isfinite(value) for value, _ in levels):
        raise ValueError("eigenvalues of the assembled Hamiltonian are beyond float range")
    return SpectrumReport(levels, FLOAT)
