"""Hamiltonians built from the capped ladder operators and their spectra.

The diagonal model H = sum_i eps_i a_i^+ a_i^- is assembled by exact matrix
products and stays diagonal in the occupation basis with entry

    sum_i eps_i v_i (p - |v| + 1)/p

at the basis vector v.  For two capped boson modes with unit coefficients
the closed-form levels are E_k = k - k(k-1)/p with multiplicity k+1
(k = 0..p); the gap between consecutive levels is 1 - 2k/p, so accidental
degeneracies appear and are merged exactly.  General quadratic Hamiltonians
sum_ij t_ij a_i^+ a_j^- are handled on the float (orthonormal) backend with
a symmetric eigensolver.  Both are assembled by one sparse builder; only the
assembled float matrix is made dense, as the eigensolver's input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .basis import AlgebraSpec, dimension
from .operators import (EXACT, FLOAT, ORTHONORMAL, UNNORMALIZED, BasisTag,
                        fock_space)
from .sparse import SparseMatrix, max_entry_difference

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


def _quadratic_form(spec: AlgebraSpec, table: Sequence[Sequence],
                    normalization: str) -> SparseMatrix:
    """sum_ij t_ij a_i^+ a_j^- by sparse products, one per nonzero t_ij.

    Each product a_i^+ a_j^- is monomial; the sum over i != j is not, so it is
    assembled as a SparseMatrix."""
    space = fock_space(spec)
    dim = dimension(spec)
    h = SparseMatrix(dim, dim, {}, BasisTag(spec, normalization))
    for i in range(1, spec.n + 1):
        for j in range(1, spec.n + 1):
            t = table[i - 1][j - 1]
            if t != 0:
                product = space.ladder(i, +1, normalization) @ space.ladder(j, -1, normalization)
                h = h + t * product.to_sparse()
    return h


def _merged(pairs) -> SpectrumReport:
    """Exact (value, multiplicity) pairs with coincident values merged, ascending."""
    counts: dict[Fraction, int] = {}
    for value, mult in pairs:
        counts[value] = counts.get(value, 0) + mult
    return SpectrumReport(tuple(sorted(counts.items())), EXACT)


def diagonal_hamiltonian(spec: AlgebraSpec,
                         energies: Sequence[Fraction | int]) -> SparseMatrix:
    """Exact H = sum_i eps_i a_i^+ a_i^-, formed by matrix products."""
    if len(energies) != spec.n:
        raise ValueError(f"expected {spec.n} coefficients, got {len(energies)}")
    table = [[Fraction(energies[i]) if i == j else 0 for j in range(spec.n)]
             for i in range(spec.n)]
    return _quadratic_form(spec, table, UNNORMALIZED)


def spectrum_of_diagonal(h: SparseMatrix) -> SpectrumReport:
    """Exact spectrum of a diagonal operator; coincident values merge."""
    off = max((abs(v) for (r, c), v in h.data.items() if r != c), default=0)
    if off != 0:
        raise ValueError("operator is not diagonal in the occupation basis")
    return _merged((Fraction(h.get(r, r)), 1) for r in range(h.rows))


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


def _cluster(values: np.ndarray, tol: float) -> tuple[tuple[float, int], ...]:
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

    Requires a symmetric table of finite numbers; the assembled matrix is checked
    for symmetry (a failure would indicate a builder bug) before calling the
    symmetric eigensolver.  Eigenvalues are clustered at CLUSTER_TOL.
    """
    try:
        table = np.asarray(t, dtype=float)
    except (TypeError, OverflowError):  # e.g. a mapping, or an integer beyond float range
        table = None
    if table is None or table.shape != (spec.n, spec.n) or not np.isfinite(table).all():
        raise ValueError(f"coefficient table must be {spec.n}x{spec.n} finite numbers")
    if np.max(np.abs(table - table.T)) > 1e-12:
        raise ValueError("coefficient table must be symmetric")
    h = _quadratic_form(spec, table.tolist(), ORTHONORMAL)
    if not all(map(math.isfinite, h.data.values())):
        raise ValueError("assembled Hamiltonian has entries beyond float range")
    asym = max_entry_difference(h, h.transpose())
    if asym > SYMMETRY_TOL:
        raise RuntimeError(f"assembled Hamiltonian not symmetric (residual {asym:g})")
    values = np.linalg.eigvalsh(h.to_dense())
    with np.errstate(over="ignore", invalid="ignore"):
        levels = _cluster(values, CLUSTER_TOL)
    if not all(math.isfinite(value) for value, _ in levels):
        raise ValueError("eigenvalues of the assembled Hamiltonian are beyond float range")
    return SpectrumReport(levels, FLOAT)
