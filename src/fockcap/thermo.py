"""Characters and grand-canonical statistics of the capped Fock space.

The single-variable character Z(z) = sum_k d_k z^k generates the graded
dimensions; evaluating it with Boltzmann weights gives the grand partition
function of noninteracting modes, from which mean occupations follow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

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


def _check_thermo_args(spec: AlgebraSpec, beta: float, energies: Sequence[float],
                       mu: float) -> list[float]:
    if not 0 < beta < math.inf:
        raise ValueError(f"inverse temperature must be positive and finite, got {beta!r}")
    if not math.isfinite(mu):
        raise ValueError(f"chemical potential must be finite, got {mu!r}")
    energies = [float(e) for e in energies]
    if len(energies) != spec.n:
        raise ValueError(f"expected {spec.n} mode energies, got {len(energies)}")
    if not all(map(math.isfinite, energies)):
        raise ValueError(f"mode energies must be finite, got {energies!r}")
    return energies


def _weights(spec: AlgebraSpec, beta: float, energies: Sequence[float],
             mu: float) -> list[tuple[tuple[int, ...], float]]:
    energies = _check_thermo_args(spec, beta, energies, mu)
    out = []
    for v in fock_space(spec).basis:
        energy = sum(e * x for e, x in zip(energies, v))
        try:
            out.append((v, math.exp(-beta * (energy - mu * sum(v)))))
        except OverflowError:
            raise _out_of_range(beta, mu) from None
    return out


def _out_of_range(beta: float, mu: float) -> ValueError:
    return ValueError(f"Boltzmann weights at beta={beta!r}, mu={mu!r} exceed the float range")


def _finite(beta: float, mu: float, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise _out_of_range(beta, mu)


def occupation_summary(spec: AlgebraSpec, beta: float, energies: Sequence[float],
                       mu: float) -> tuple[float, list[float], float]:
    """(Xi, per-mode mean occupations, mean total) in a single basis pass.

    Xi = sum over basis vectors of exp(-beta*(sum_i eps_i v_i - mu|v|)); with
    all energies zero it is the character evaluated at z = exp(beta*mu).  A
    weight or a sum beyond the float range is a ValueError naming beta and mu."""
    weights = _weights(spec, beta, energies, mu)
    xi = sum(w for _, w in weights)
    _finite(beta, mu, xi)
    means = [sum(v[i] * w for v, w in weights) / xi for i in range(spec.n)]
    mean_total = sum(means)
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
