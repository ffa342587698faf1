import math

import pytest

from fockcap import (AlgebraSpec, Kind, character, dimension, graded_dimensions,
                     occupation_summary)
from fockcap.thermo import thermo_csv

from conftest import small_grid


def test_character_frozen():
    z = character(AlgebraSpec(Kind.FERMI, 2, 1))
    assert z.coefficients == (1, 2)
    assert z(1.0) == 3.0
    z = character(AlgebraSpec(Kind.BOSE, 2, 2))
    assert z.coefficients == (1, 2, 3)
    assert z(2.0) == 1 + 4 + 12


def test_character_counts_states():
    for spec in small_grid(4, 4):
        z = character(spec)
        assert z.coefficients == tuple(graded_dimensions(spec))
        assert z(1.0) == dimension(spec)
        assert z.degree == spec.p


def test_partition_function_collapses_to_character():
    # with all energies zero, Xi equals the character at z = exp(beta*mu)
    for spec in (AlgebraSpec(Kind.FERMI, 3, 2), AlgebraSpec(Kind.BOSE, 2, 3)):
        z = character(spec)
        for beta, mu in [(1.0, 0.0), (0.7, 0.3), (2.0, -0.5)]:
            xi = occupation_summary(spec, beta, [0.0] * spec.n, mu)[0]
            assert xi == pytest.approx(z(math.exp(beta * mu)), rel=1e-12)


def test_two_state_partition_function():
    spec = AlgebraSpec(Kind.BOSE, 1, 1)
    xi = occupation_summary(spec, 1.0, [1.0], 0.0)[0]
    assert xi == pytest.approx(1 + math.exp(-1), rel=1e-14)


def test_ground_state_dominates_at_low_temperature():
    spec = AlgebraSpec(Kind.BOSE, 2, 3)
    xi = occupation_summary(spec, 200.0, [1.0, 2.0], 0.0)[0]
    assert xi == pytest.approx(1.0, abs=1e-12)


def test_fermi_function_recovered():
    spec = AlgebraSpec(Kind.FERMI, 1, 1)
    for beta, eps, mu in [(1.0, 1.0, 0.0), (2.5, 0.3, 0.8)]:
        mean = occupation_summary(spec, beta, [eps], mu)[1][0]
        assert mean == pytest.approx(1 / (math.exp(beta * (eps - mu)) + 1), rel=1e-13)


def test_symmetric_modes_equal_occupations():
    spec = AlgebraSpec(Kind.BOSE, 3, 2)
    _, means, mean_total = occupation_summary(spec, 1.3, [0.4] * 3, 0.2)
    assert means[0] == pytest.approx(means[1], rel=1e-13)
    assert means[1] == pytest.approx(means[2], rel=1e-13)
    assert mean_total == pytest.approx(sum(means), rel=1e-13)


def test_mean_total_bounded_by_cap():
    for spec in small_grid(3, 3):
        for mu in (-1.0, 0.0, 2.0, 10.0):
            _, means, mean_total = occupation_summary(spec, 1.0, [0.5] * spec.n, mu)
            assert -1e-12 <= mean_total <= spec.p + 1e-12
            if spec.kind is Kind.FERMI:
                assert all(m <= 1 + 1e-12 for m in means)


def test_partition_monotone_in_mu():
    spec = AlgebraSpec(Kind.BOSE, 2, 2)
    values = [occupation_summary(spec, 1.0, [1.0, 2.0], mu)[0] for mu in (-1.0, 0.0, 1.0, 2.0)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(v > 0 for v in values)


def test_capped_mode_approaches_geometric_series_from_below():
    # single bose mode with beta(eps-mu) > 0: Xi(p) increases with p toward
    # the uncapped geometric sum
    beta, eps, mu = 1.0, 1.0, 0.0
    xs = [occupation_summary(AlgebraSpec(Kind.BOSE, 1, p), beta, [eps], mu)[0]
          for p in (1, 2, 4, 8, 16)]
    assert all(a < b for a, b in zip(xs, xs[1:]))
    geometric = 1 / (1 - math.exp(-beta * (eps - mu)))
    assert all(x < geometric for x in xs)
    assert xs[-1] == pytest.approx(geometric, abs=1e-7)


def test_argument_validation():
    spec = AlgebraSpec(Kind.BOSE, 2, 1)
    with pytest.raises(ValueError):
        occupation_summary(spec, 0.0, [1.0, 1.0], 0.0)
    with pytest.raises(ValueError):
        occupation_summary(spec, 1.0, [1.0], 0.0)
    nan, inf = float("nan"), float("inf")
    for beta, energies, mu in [(nan, [1.0, 1.0], 0.0), (inf, [1.0, 1.0], 0.0),
                               (-1.0, [1.0, 1.0], 0.0), (1.0, [1.0, 1.0], nan),
                               (1.0, [1.0, 1.0], -inf), (1.0, [inf, 1.0], 0.0),
                               (1.0, [1.0, nan], 0.0)]:
        with pytest.raises(ValueError, match="finite"):
            occupation_summary(spec, beta, energies, mu)


def test_weights_beyond_float_range_are_rejected():
    # an exp overflow, and a sum of finite weights that overflows (the true
    # means of the last case are 1/3 each, not the 0.0 that Xi = inf gives)
    for spec, beta, mu in [(AlgebraSpec(Kind.BOSE, 2, 3), 1000.0, 1.0),
                           (AlgebraSpec(Kind.FERMI, 2, 3), 1.0, 700.0),
                           (AlgebraSpec(Kind.BOSE, 3, 1), 1.0, 709.0)]:
        energies = [0.0] * spec.n
        with pytest.raises(ValueError, match=f"beta={beta!r}, mu={mu!r}"):
            occupation_summary(spec, beta, energies, mu)
    xi, means, _ = occupation_summary(AlgebraSpec(Kind.BOSE, 3, 1), 1.0, [0.0] * 3, 700.0)
    assert math.isfinite(xi) and means == pytest.approx([1 / 3] * 3)


def test_csv_sweep_layout():
    spec = AlgebraSpec(Kind.BOSE, 2, 1)
    text = thermo_csv(spec, [1.0], [0.0, 0.5], [0.0, 0.0])
    lines = text.strip().splitlines()
    assert lines[0] == "beta,mu,Xi,mean_occ_1,mean_occ_2,mean_total"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 1.0 and float(first[1]) == 0.0
    assert float(first[2]) == pytest.approx(3.0)  # character at z=1
