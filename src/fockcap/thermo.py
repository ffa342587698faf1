"""Characters and grand-canonical statistics of the capped Fock space.

The single-variable character Z(z) = sum_k d_k z^k generates the graded
dimensions; evaluating it with Boltzmann weights gives the grand partition
function of noninteracting modes, from which mean occupations follow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .basis import AlgebraSpec, graded_dimensions
from .operators import fock_space


@dataclass(frozen=True)
class CharacterPolynomial:
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


def monomial_table(spec: AlgebraSpec) -> dict[tuple[int, ...], int]:
    """Multi-variable character data: each occupation pattern has multiplicity 1."""
    return {v: 1 for v in fock_space(spec).basis}


def _check_thermo_args(spec: AlgebraSpec, beta: float, energies: Sequence[float]) -> list[float]:
    if beta <= 0:
        raise ValueError(f"inverse temperature must be positive, got {beta!r}")
    energies = [float(e) for e in energies]
    if len(energies) != spec.n:
        raise ValueError(f"expected {spec.n} mode energies, got {len(energies)}")
    return energies


def _weights(spec: AlgebraSpec, beta: float, energies: Sequence[float],
             mu: float) -> list[tuple[tuple[int, ...], float]]:
    energies = _check_thermo_args(spec, beta, energies)
    out = []
    for v in fock_space(spec).basis:
        energy = sum(e * x for e, x in zip(energies, v))
        out.append((v, math.exp(-beta * (energy - mu * sum(v)))))
    return out


def grand_partition(spec: AlgebraSpec, beta: float, energies: Sequence[float],
                    mu: float) -> float:
    """Xi = sum over basis vectors of exp(-beta*(sum_i eps_i v_i - mu|v|)).

    With all energies zero this collapses to the character evaluated at
    z = exp(beta*mu).
    """
    return sum(w for _, w in _weights(spec, beta, energies, mu))


def mean_occupation(spec: AlgebraSpec, beta: float, energies: Sequence[float],
                    mu: float, i: int) -> float:
    """Grand-canonical mean occupation of mode i (1-based)."""
    if not (1 <= i <= spec.n):
        raise ValueError(f"mode index {i!r} out of range 1..{spec.n}")
    weights = _weights(spec, beta, energies, mu)
    xi = sum(w for _, w in weights)
    return sum(v[i - 1] * w for v, w in weights) / xi


def occupation_summary(spec: AlgebraSpec, beta: float, energies: Sequence[float],
                       mu: float) -> tuple[float, list[float], float]:
    """(Xi, per-mode mean occupations, mean total) in a single basis pass."""
    weights = _weights(spec, beta, energies, mu)
    xi = sum(w for _, w in weights)
    means = [sum(v[i] * w for v, w in weights) / xi for i in range(spec.n)]
    return xi, means, sum(means)


def thermo_csv(spec: AlgebraSpec, betas: Sequence[float], mus: Sequence[float],
               energies: Sequence[float]) -> str:
    """CSV sweep over (beta, mu) with columns beta, mu, Xi, mean_occ_i, mean_total."""
    header = ["beta", "mu", "Xi"] + [f"mean_occ_{i}" for i in range(1, spec.n + 1)]
    header.append("mean_total")
    lines = [",".join(header)]
    for beta in betas:
        for mu in mus:
            xi, means, mean_total = occupation_summary(spec, beta, energies, mu)
            row = [repr(float(beta)), repr(float(mu)), repr(xi)]
            row += [repr(m) for m in means]
            row.append(repr(mean_total))
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"
