"""Characters and grand-canonical statistics of the capped Fock space.

The single-variable character Z(z) = sum_k d_k z^k generates the graded
dimensions.  Weighting mode i by y_i = exp(-beta*(eps_i - mu)) turns the same
grading into the grand partition function of noninteracting modes, the
truncated sum Xi = sum_{k<=p} h_k(y) (Bose) or e_k(y) (Fermi), which one
recurrence over the modes builds; the mean occupations follow from the same
polynomials, so no basis is enumerated.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Sequence

from .basis import AlgebraSpec, graded_dimensions


class CharacterPolynomial(NamedTuple):
    """Coefficients c_0..c_p of the grade-generating polynomial."""

    coefficients: tuple[int, ...]

    def __call__(self, z: float) -> float:
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def character(spec: AlgebraSpec) -> CharacterPolynomial:
    """Character of the Fock space: c_k = number of grade-k basis vectors."""
    return CharacterPolynomial(tuple(graded_dimensions(spec)))


def _check_thermo_args(spec: AlgebraSpec, beta: float, energies: Sequence[float],
                       mu: float) -> list[float]:
    if not 0 < beta < math.inf:
        raise ValueError(f"inverse temperature must be positive and finite, got {beta!r}")
    if not math.isfinite(mu):
        raise ValueError(f"chemical potential must be finite, got {mu!r}")
    energies = [float(e) for e in energies]
    if len(energies) != spec.n:
        raise ValueError(f"expected {spec.n} energies, got {len(energies)}")
    if not all(map(math.isfinite, energies)):
        raise ValueError(f"mode energies must be finite, got {energies!r}")
    return energies


def _out_of_range(beta: float, mu: float) -> ValueError:
    return ValueError(f"Boltzmann weights at beta={beta!r}, mu={mu!r} exceed the float range")


def _finite(beta: float, mu: float, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise _out_of_range(beta, mu)


def _times_mode(c: list[float], y: float, steps: range) -> list[float]:
    """c times one mode's polynomial, truncated at the cap, in place: the one
    step c[k] += y c[k-1] in the order of AlgebraSpec.grade_steps, which makes
    it 1 + y t for a Fermi mode and 1/(1 - y t) for a Bose one."""
    for k in steps:
        c[k] += y * c[k - 1]
    return c


def occupation_summary(spec: AlgebraSpec, beta: float, energies: Sequence[float],
                       mu: float) -> tuple[float, list[float], float]:
    """(Xi, per-mode mean occupations, mean total) from the grade polynomial.

    With mode factors y_i = exp(-beta*(eps_i - mu)), c_k = h_k(y) (Bose) or
    e_k(y) (Fermi) is the Boltzmann weight of grade k, Xi = sum_{k<=p} c_k and
    the mean total is sum_k k*c_k / Xi; with all energies zero Xi is the
    character evaluated at z = exp(beta*mu).  Mode i holds j quanta with weight
    y_i^j times a grade <= p - j state of the other modes, whose polynomial is
    the product of the prefix and suffix polynomials around i, cut at grade top
    (AlgebraSpec.top).  No basis is enumerated: a point costs O(n*top^2).  A
    mode factor, Xi, a mean or the mean total past the float range is a
    ValueError naming beta and mu."""
    energies = _check_thermo_args(spec, beta, energies, mu)
    try:
        ys = [math.exp(-beta * (e - mu)) for e in energies]
    except OverflowError:
        raise _out_of_range(beta, mu) from None
    p, top, steps = spec.p, spec.top, spec.grade_steps
    after = [[1.0] + [0.0] * top]  # after[i]: the polynomial of the modes after mode i
    for y in reversed(ys[1:]):
        after.append(_times_mode(after[-1][:], y, steps))
    after.reverse()
    grades = _times_mode(after[0][:], ys[0], steps)
    xi = sum(grades)
    _finite(beta, mu, xi)
    means = []
    before = [1.0] + [0.0] * top  # the polynomial of the modes before mode i
    for y, suffix in zip(ys, after):
        below = suffix[:]  # below[d]: weight of the modes after i at grades <= d
        for d in range(1, top + 1):
            below[d] += below[d - 1]
        numerator, power = 0.0, 1.0
        for j in range(1, spec.max_entry + 1):
            power *= y
            numerator += j * power * sum(before[a] * below[min(p - j - a, top)]
                                         for a in range(min(p - j, top) + 1))
        means.append(numerator / xi)
        _times_mode(before, y, steps)
    mean_total = sum(k * c for k, c in enumerate(grades)) / xi
    _finite(beta, mu, *means, mean_total)
    return xi, means, mean_total


def sweep(spec: AlgebraSpec, betas: Sequence[float], mus: Sequence[float],
          energies: Sequence[float]) -> Iterator[tuple[float, float, float, list[float], float]]:
    """(beta, mu, Xi, per-mode mean occupations, mean total) at each point, beta-major."""
    for beta in betas:
        for mu in mus:
            yield (beta, mu, *occupation_summary(spec, beta, energies, mu))


def thermo_csv(spec: AlgebraSpec, betas: Sequence[float], mus: Sequence[float],
               energies: Sequence[float]) -> str:
    """CSV sweep over (beta, mu) with columns beta, mu, Xi, mean_occ_i, mean_total."""
    header = ["beta", "mu", "Xi"] + [f"mean_occ_{i}" for i in range(1, spec.n + 1)]
    header.append("mean_total")
    lines = [",".join(header)]
    for beta, mu, xi, means, mean_total in sweep(spec, betas, mus, energies):
        row = [repr(float(beta)), repr(float(mu)), repr(xi)]
        row += [repr(m) for m in means]
        row.append(repr(mean_total))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
