"""Hamiltonians built from the capped ladder operators and their spectra.

The diagonal model H = sum_i eps_i a_i^+ a_i^- is diagonal in the occupation
basis with entry

    sum_i eps_i v_i (p - |v| + 1)/p

at the basis vector v (the Fermi sign squares to 1), so each level depends
only on the grade |v| and the energy sum sum_i eps_i v_i.  diagonal_spectrum
counts the basis vectors by those two numbers, one mode at a time, and builds
no space and no operator; its oracle, which assembles H by exact matrix
products, lives with the tests.  For two capped boson modes with unit
coefficients the closed-form levels are E_k = k - k(k-1)/p with multiplicity
k+1 (k = 0..p); the gap between consecutive levels is 1 - 2k/p, so accidental
degeneracies appear and are merged exactly.

A general quadratic Hamiltonian H = sum_ij t_ij a_i^+ a_j^- reduces to the
diagonal model (the one-body reduction).  By the actions in operators.py, on
grade k

    a_i^+ a_j^- = ((p - k + 1)/p) b_i^+ b_j,

with b the ordinary uncapped ladders, Fermi sign included: the cap deforms
only the mixed relation, by one factor per grade.  So H on grade k is
(p-k+1)/p times the ordinary one-body operator sum_ij t_ij b_i^+ b_j, whose
k-quantum levels are the sums of k eigenvalues eps of t, of k distinct ones
for Fermi (Negele and Orland, Quantum Many-Particle Systems, 1988, ch. 1).
Those are the levels of the diagonal model at the energies eps, so
quadratic_hamiltonian_spectrum counts them with diagonal_level_counts and
builds no space and no operator either; its oracle is a dense eigensolve of
the assembled H, in the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .basis import EXACT, FLOAT, AlgebraSpec

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


def _cluster(counts: Mapping[int, int], denom: int) -> tuple[tuple[float, int], ...]:
    """The levels value/denom of counts, ascending, grouped wherever
    consecutive ones differ by more than CLUSTER_TOL; each level is its
    group's exact weighted mean, rounded once to a float, with the group's
    total multiplicity.  ValueError if a mean is beyond float range."""
    gap = math.floor(Fraction(CLUSTER_TOL) * denom)  # int d exceeds CLUSTER_TOL*denom iff d > gap
    groups: list[list[int]] = []  # [sum of value*mult, sum of mult] per group
    previous = None
    for value, mult in sorted(counts.items()):
        if not groups or value - previous > gap:
            groups.append([0, 0])
        groups[-1][0] += value * mult
        groups[-1][1] += mult
        previous = value
    try:  # int true division rounds once, correctly
        return tuple((total / (size * denom), size) for total, size in groups)
    except OverflowError:
        raise ValueError("levels of the Hamiltonian are beyond float range") from None


def quadratic_hamiltonian_spectrum(spec: AlgebraSpec,
                                   t: Sequence[Sequence[float]]) -> SpectrumReport:
    """Spectrum of H = sum_ij t_ij a_i^+ a_j^- on the orthonormal backend, by
    the one-body reduction of the module docstring.

    Requires a symmetric table of finite numbers.  The energies eps are the
    eigenvalues of t: its diagonal if t is diagonal, else those of numpy's
    symmetric eigensolver on the n x n table, the one numpy call, so numpy is
    imported only then.  A float is a dyadic rational, so diagonal_level_counts
    counts the levels of the diagonal model at eps exactly.  They are
    clustered at CLUSTER_TOL, so a level may span grades, and each level is
    its cluster's exact mean, rounded once: a diagonal table whose levels do
    not merge gets every level correctly rounded.  ValueError if an
    eigenvalue or a level is beyond float range.
    """
    table = _float_table(spec.n, t)
    n = spec.n
    if any(table[i][j] for i in range(n) for j in range(n) if i != j):
        import numpy as np  # here, so that only a table with an off-diagonal entry pays for it

        eps = np.linalg.eigvalsh(table).tolist()
    else:
        eps = [table[i][i] for i in range(n)]
    if not all(map(math.isfinite, eps)):
        raise ValueError("eigenvalues of the coefficient table are beyond float range")
    counts, denom = diagonal_level_counts(spec, [Fraction(e) for e in eps])
    return SpectrumReport(_cluster(counts, denom), FLOAT)
