"""Hamiltonians built from the capped ladder operators and their spectra.

The diagonal model H = sum_i eps_i a_i^+ a_i^- is assembled by exact matrix
products and stays diagonal in the occupation basis with entry

    sum_i eps_i v_i (p - |v| + 1)/p

at the basis vector v.  For two capped boson modes with unit coefficients
the closed-form levels are E_k = k - k(k-1)/p with multiplicity k+1
(k = 0..p); the gap between consecutive levels is 1 - 2k/p, so accidental
degeneracies appear and are merged exactly.  General quadratic Hamiltonians
sum_ij t_ij a_i^+ a_j^- are handled on the float (orthonormal) backend with
a symmetric eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .basis import AlgebraSpec, dimension
from .operators import (EXACT, FLOAT, build_annihilation, build_creation,
                        exact_tag, orthonormal_annihilation,
                        orthonormal_creation)
from .sparse import SparseMatrix

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


def diagonal_hamiltonian(spec: AlgebraSpec,
                         energies: Sequence[Fraction | int]) -> SparseMatrix:
    """Exact H = sum_i eps_i a_i^+ a_i^-, formed by matrix products."""
    if len(energies) != spec.n:
        raise ValueError(f"expected {spec.n} coefficients, got {len(energies)}")
    dim = dimension(spec)
    h = SparseMatrix(dim, dim, {}, exact_tag(spec))
    for i in range(1, spec.n + 1):
        eps = Fraction(energies[i - 1])
        if eps == 0:
            continue
        h = h + eps * (build_creation(spec, i) @ build_annihilation(spec, i))
    return h


def spectrum_of_diagonal(h: SparseMatrix) -> SpectrumReport:
    """Exact spectrum of a diagonal operator; coincident values merge."""
    off = max((abs(v) for (r, c), v in h.data.items() if r != c), default=0)
    if off != 0:
        raise ValueError("operator is not diagonal in the occupation basis")
    counts: dict[Fraction, int] = {}
    for r in range(h.rows):
        value = Fraction(h.get(r, r))
        counts[value] = counts.get(value, 0) + 1
    levels = tuple(sorted(counts.items()))
    return SpectrumReport(levels, EXACT)


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
    counts: dict[Fraction, int] = {}
    for _, value, mult, _ in toy_levels(p):
        counts[value] = counts.get(value, 0) + mult
    return SpectrumReport(tuple(sorted(counts.items())), EXACT)


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

    Requires a symmetric coefficient table; the assembled matrix is checked
    for symmetry (a failure would indicate a builder bug) before calling the
    symmetric eigensolver.  Eigenvalues are clustered at CLUSTER_TOL.
    """
    table = np.asarray(t, dtype=float)
    if table.shape != (spec.n, spec.n):
        raise ValueError(f"coefficient table must be {spec.n}x{spec.n}, got {table.shape}")
    if np.max(np.abs(table - table.T)) > 1e-12:
        raise ValueError("coefficient table must be symmetric")
    ups = [orthonormal_creation(spec, i) for i in range(1, spec.n + 1)]
    downs = [orthonormal_annihilation(spec, j) for j in range(1, spec.n + 1)]
    dim = dimension(spec)
    h = np.zeros((dim, dim))
    for i in range(spec.n):
        for j in range(spec.n):
            if table[i, j] != 0.0:
                h += table[i, j] * (ups[i] @ downs[j]).to_dense()
    asym = float(np.max(np.abs(h - h.T))) if dim else 0.0
    if asym > SYMMETRY_TOL:
        raise RuntimeError(f"assembled Hamiltonian not symmetric (residual {asym:g})")
    values = np.linalg.eigvalsh(h)
    return SpectrumReport(_cluster(values, CLUSTER_TOL), FLOAT)
