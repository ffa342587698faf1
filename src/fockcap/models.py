"""Hamiltonians built from the capped ladder operators and their spectra.

The diagonal model H = sum_i eps_i a_i^+ a_i^- is diagonal in the occupation
basis with entry

    sum_i eps_i v_i (p - |v| + 1)/p

at the basis vector v (the Fermi sign squares to 1), so each level depends
only on the grade |v| and the energy sum sum_i eps_i v_i.  diagonal_spectrum
counts the basis vectors by those two numbers, one mode at a time, and builds
no space and no operator; diagonal_hamiltonian assembles H by exact matrix
products and is its oracle.  For two capped boson modes with unit coefficients
the closed-form levels are E_k = k - k(k-1)/p with multiplicity k+1
(k = 0..p); the gap between consecutive levels is 1 - 2k/p, so accidental
degeneracies appear and are merged exactly.  General quadratic Hamiltonians
sum_ij t_ij a_i^+ a_j^- are handled on the float (orthonormal) backend.  Both
sum monomial products a_i^+ @ a_j^- (diagonal ones never clash).  Each product
keeps the total occupation, so the float sum falls into one block per grade,
never into a dim x dim matrix.  A block with no off-diagonal entry needs no
eigensolver: its diagonal is its spectrum, in plain Python floats.  Only the
other blocks go to a symmetric eigensolver, and numpy is imported for them
alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .basis import AlgebraSpec
from .operators import EXACT, FLOAT, ORTHONORMAL, UNNORMALIZED, FockSpace, grade_diagonal
from .sparse import MonomialMatrix

SYMMETRY_TOL = 1e-10
CLUSTER_TOL = 1e-9


class SpectrumReport(NamedTuple):
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


def _products(space: FockSpace, table: Sequence[Sequence], normalization: str):
    """(t_ij, a_i^+ @ a_j^-) for every nonzero t_ij, in row-major (i, j) order."""
    n = space.spec.n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            t = table[i - 1][j - 1]
            if t != 0:
                yield t, space.ladder(i, +1, normalization) @ space.ladder(j, -1, normalization)


def _report(counts: Mapping[Fraction | int, int], denom: int = 1) -> SpectrumReport:
    """Levels value/denom of distinct values and their multiplicities, ascending."""
    return SpectrumReport(tuple((Fraction(v, denom), m) for v, m in sorted(counts.items())), EXACT)


def _merged(pairs, denom: int = 1) -> SpectrumReport:
    """Levels value/denom of (value, multiplicity) pairs, coincident values merged, ascending."""
    counts: dict[Fraction | int, int] = {}
    for value, mult in pairs:
        counts[value] = counts.get(value, 0) + mult
    return _report(counts, denom)


def _check_energy_count(spec: AlgebraSpec, energies: Sequence) -> None:
    if len(energies) != spec.n:
        raise ValueError(f"expected {spec.n} energies, got {len(energies)}")


def diagonal_table(spec: AlgebraSpec, energies: Sequence) -> list[list]:
    """The coefficient table t_ij of H = sum_i eps_i a_i^+ a_i^-: eps_i on the
    diagonal, 0 elsewhere; one energy per mode."""
    _check_energy_count(spec, energies)
    return [[energies[i] if i == j else 0 for j in range(spec.n)] for i in range(spec.n)]


def diagonal_hamiltonian(spec: AlgebraSpec,
                         energies: Sequence[Fraction | int]) -> MonomialMatrix:
    """Exact H = sum_i eps_i a_i^+ a_i^-, formed by matrix products: the
    product-route oracle of diagonal_spectrum."""
    table = diagonal_table(spec, [Fraction(e) for e in energies])
    space = FockSpace(spec)
    zero = grade_diagonal(space, lambda k: 0)
    return sum((t * product for t, product in _products(space, table, UNNORMALIZED)), zero)


def spectrum_of_diagonal(h: MonomialMatrix) -> SpectrumReport:
    """Exact spectrum of a diagonal operator; coincident values merge.  With
    diagonal_hamiltonian, the product-route oracle of diagonal_spectrum."""
    if h.max_abs(lambda r, c: r != c) != 0:
        raise ValueError("operator is not diagonal in the occupation basis")
    return _merged(((x, 1) for x in h.coef[:-1]), h.denom)


def diagonal_level_counts(spec: AlgebraSpec,
                          energies: Sequence[Fraction | int]) -> tuple[dict[int, int], int]:
    """(counts, denom): the levels of H = sum_i eps_i a_i^+ a_i^- are the
    value/denom over the keys of counts, each of multiplicity counts[value],
    counted over the basis vectors by grade k = |v| and energy sum
    S = sum_i w_i v_i.  The keys are ints, distinct but not sorted, and
    value/denom need not be in lowest terms (denom > 0).

    Over the common denominator D of the energies, eps_i = w_i/D with integer
    w_i, and the level at v is S (p - k + 1)/(D p), so denom = D p.  Grade k
    holds a dict from S to its count, and each mode multiplies the grades in
    place by thermo's step, grades[k] += grades[k-1] shifted by w_i, over the
    grades of spec.grade_steps (to AlgebraSpec.top); one last pass turns grade
    k into the values S (p - k + 1).  That is at most one dict update per
    (grade, sum) pair per mode, so at most n*dim, and far fewer where energies
    coincide; no basis, index or operator is formed.
    """
    _check_energy_count(spec, energies)
    eps = [Fraction(e) for e in energies]
    p, denom = spec.p, math.lcm(*(e.denominator for e in eps))
    grades: list[dict[int, int]] = [{0: 1}] + [{} for _ in spec.grade_steps]  # k -> {S: count}
    for w in [e.numerator * (denom // e.denominator) for e in eps]:
        for k in spec.grade_steps:
            target = grades[k]
            for s, m in grades[k - 1].items():
                target[s + w] = target.get(s + w, 0) + m
    levels: dict[int, int] = {}  # S (p - k + 1) -> count
    for factor in range(p + 2 - len(grades), p + 2):  # grade p + 1 - factor, popped as read
        for s, m in grades.pop().items():
            levels[s * factor] = levels.get(s * factor, 0) + m
    return levels, denom * p


def diagonal_spectrum(spec: AlgebraSpec,
                      energies: Sequence[Fraction | int]) -> SpectrumReport:
    """Exact spectrum of H = sum_i eps_i a_i^+ a_i^-: the levels of
    diagonal_level_counts as Fractions, ascending."""
    return _report(*diagonal_level_counts(spec, energies))


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


def _pairwise_sum(x: Sequence[float], lo: int, hi: int) -> float:
    """The sum of x[lo:hi] as numpy adds a float64 array (pairwise_sum in its
    loops_utils): below 8 values one running sum from 0.0; up to 128, eight
    strided running sums combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the tail; above that, the two halves split at n//2 rounded down to a
    multiple of 8."""
    n = hi - lo
    if n < 8:
        total = 0.0
        for i in range(lo, hi):
            total += x[i]
        return total
    if n <= 128:
        end = hi - n % 8
        r = []
        for j in range(lo, lo + 8):  # sum() would not do: it compensates from Python 3.12
            acc = x[j]
            for y in x[j + 8:end:8]:
                acc += y
            r.append(acc)
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(end, hi):
            total += x[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(x, lo, lo + half) + _pairwise_sum(x, lo + half, hi)


def _mean(x: Sequence[float]) -> float:
    """float(np.mean(x)), bit for bit: numpy reduces from the identity 0.0.
    The mean of k equal floats is not always that float."""
    return (0.0 + _pairwise_sum(x, 0, len(x))) / len(x)


def _cluster(values: Sequence[float], tol: float) -> tuple[tuple[float, int], ...]:
    """Sorted values grouped wherever consecutive ones differ by more than tol;
    each level is its group's mean and size."""
    levels: list[tuple[float, int]] = []
    cluster: list[float] = []
    for x in sorted(map(float, values)):
        if cluster and x - cluster[-1] > tol:
            levels.append((_mean(cluster), len(cluster)))
            cluster = []
        cluster.append(x)
    if cluster:
        levels.append((_mean(cluster), len(cluster)))
    return tuple(levels)


def _float_table(n: int, t) -> list[list[float]]:
    """t as n rows of n floats.  ValueError unless every t[i][j] is an int or
    a float (not a bool) that is finite as a float, and t is symmetric to 1e-12."""
    message = f"coefficient table must be {n}x{n} finite int or float numbers"
    try:
        if (isinstance(t, Mapping) or len(t) != n
                or any(isinstance(t[i], Mapping) or len(t[i]) != n for i in range(n))):
            raise ValueError(message)
        entries = [[t[i][j] for j in range(n)] for i in range(n)]
    except (TypeError, IndexError):  # a scalar, a row that is not a sequence
        raise ValueError(message) from None
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool)
               for row in entries for x in row):
        raise ValueError(message)
    try:
        table = [[float(x) for x in row] for row in entries]
    except OverflowError:  # an int beyond float range
        raise ValueError(message) from None
    if not all(math.isfinite(x) for row in table for x in row):
        raise ValueError(message)
    if max(abs(table[i][j] - table[j][i]) for i in range(n) for j in range(n)) > 1e-12:
        raise ValueError("coefficient table must be symmetric")
    return table


def quadratic_hamiltonian_spectrum(spec: AlgebraSpec,
                                   t: Sequence[Sequence[float]]) -> SpectrumReport:
    """Spectrum of H = sum_ij t_ij a_i^+ a_j^- on the orthonormal backend.

    Requires a symmetric table of finite numbers.  Every a_i^+ a_j^- keeps the
    total occupation, so H is block diagonal over the grades k = 0..p, and in
    the graded-lex basis block k is the rank range offsets[k]..offsets[k+1].
    The products are summed one at a time into one accumulator per stored
    entry, in product order: the additions h[r, c] += t_ij * coef of a zero
    array, so each entry is the same float.  Each block is then checked to
    keep every entry inside it (a builder bug otherwise), to hold finite
    numbers, and to be symmetric on the stored positions (a builder bug
    otherwise).  A block with no stored off-diagonal entry has its diagonal as
    its eigenvalues; only any other block is scattered into a small array and
    handed to the symmetric eigensolver, and only then is numpy imported.  No
    dim x dim matrix is formed.  The eigenvalues of all blocks are clustered
    together at CLUSTER_TOL, so a level may span grades.
    """
    table = _float_table(spec.n, t)
    space = FockSpace(spec)
    grades, offsets = space.grades, space.offsets
    dim = len(grades)
    diag = [0.0] * dim  # an unstored diagonal entry is the 0.0 it starts from
    off: list[dict[int, float]] = [{} for _ in offsets[1:]]  # per grade block, (r, c) at r*dim + c
    outside = len(offsets)  # the first grade block with an entry outside it, if any
    for t_ij, product in _products(space, table, ORTHONORMAL):
        for c, (r, x) in enumerate(zip(product.target, product.coef)):
            if not x:
                continue
            if r == c:
                diag[c] += t_ij * x
                continue
            k = grades[c]
            if grades[r] != k:
                outside = min(outside, k)
            else:
                block, key = off[k], r * dim + c
                block[key] = block.get(key, 0.0) + t_ij * x
    values: list[float] = []
    for k, (block, lo, hi) in enumerate(zip(off, offsets, offsets[1:])):
        if k == outside:
            raise RuntimeError(f"assembled Hamiltonian has an entry outside grade block {k}")
        if not (all(map(math.isfinite, diag[lo:hi])) and all(map(math.isfinite, block.values()))):
            raise ValueError("assembled Hamiltonian has entries beyond float range")
        # a finite diagonal entry is its own mirror image; that of r*dim + c is c*dim + r
        asym = max((abs(h_rc - block.get(key % dim * dim + key // dim, 0.0))
                    for key, h_rc in block.items()), default=0.0)
        if asym > SYMMETRY_TOL:
            raise RuntimeError(f"assembled Hamiltonian not symmetric (residual {asym:g})")
        if not block:
            values += diag[lo:hi]
            continue
        import numpy as np  # here, so that only a block with an off-diagonal entry pays for it

        h = np.diag(diag[lo:hi])
        rows, cols = np.divmod(np.fromiter(block, np.int64, len(block)), dim)
        h[rows - lo, cols - lo] = list(block.values())
        values += np.linalg.eigvalsh(h).tolist()
    levels = _cluster(values, CLUSTER_TOL)
    if not all(math.isfinite(value) for value, _ in levels):
        raise ValueError("eigenvalues of the assembled Hamiltonian are beyond float range")
    return SpectrumReport(levels, FLOAT)
