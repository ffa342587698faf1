import math

import pytest

from fockcap import (AlgebraSpec, FockSpace, Kind, basis, character, cli, dimension,
                     graded_dimensions, occupation_summary)
from fockcap.thermo import thermo_csv

from conftest import small_grid


def basis_sum(spec, beta, energies, mu):
    """Oracle: (Xi, means, mean total) as sums over every basis vector v of the
    weight exp(-beta*(sum_i eps_i v_i - mu|v|)).  A weight, Xi, a mean or the
    mean total beyond the float range is a ValueError, as in occupation_summary."""
    weights = []
    for v in FockSpace(spec).basis:
        energy = sum(e * x for e, x in zip(energies, v))
        try:
            weights.append((v, math.exp(-beta * (energy - mu * sum(v)))))
        except OverflowError:
            raise ValueError("weight overflow") from None
    xi = sum(w for _, w in weights)
    means = [sum(v[i] * w for v, w in weights) / xi for i in range(spec.n)]
    mean_total = sum(sum(v) * w for v, w in weights) / xi
    if not all(map(math.isfinite, [xi, *means, mean_total])):
        raise ValueError("beyond the float range")
    return xi, means, mean_total


def _flat(summary):
    xi, means, mean_total = summary
    return [xi, *means, mean_total]


def _all_close(got, want, rel):
    return len(got) == len(want) and all(math.isclose(g, w, rel_tol=rel, abs_tol=0.0)
                                         for g, w in zip(got, want))


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


# Reference values of the per-vector basis sum (the route of basis_sum), stored
# as literals.  The grade recurrence adds in another order, so the two agree to
# a relative 1e-12, not to the last bit.
THERMO_GOLDEN = [
    (('bose', 3, 4, [-0.5, 0.0, 1.25], 0.4, -0.3),
     (22.052829295254966, [1.3632235216073842, 0.9770303287471811, 0.47061067505288645], 2.8108645254074514)),
    (('bose', 3, 4, [-0.5, 0.0, 1.25], 0.4, 0.6),
     (65.75715066325469, [1.5839874066217425, 1.1208622314091579, 0.5276768353078756], 3.232526473338776)),
    (('bose', 3, 4, [-0.5, 0.0, 1.25], 1.7, -0.3),
     (18.384922115040755, [2.2290765305849463, 0.5388126498673685, 0.046031583142051205], 2.813920763594366)),
    (('bose', 3, 4, [-0.5, 0.0, 1.25], 1.7, 0.6),
     (3777.689163209665, [3.1162512852832633, 0.6571073542351432, 0.052112590447648106], 3.825471229966055)),
    (('fermi', 3, 5, [-1.0, 0.0, 2.0], 0.4, -0.3),
     (6.1304936941426575, [0.5695462239392289, 0.4700359482354282, 0.2849578942990102], 1.3245400664736673)),
    (('fermi', 3, 5, [-1.0, 0.0, 2.0], 0.4, 0.6),
     (10.336402668976987, [0.6547534606063192, 0.5597136492671929, 0.36354745971843366], 1.5780145695919456)),
    (('fermi', 3, 5, [-1.0, 0.0, 2.0], 1.7, -0.3),
     (6.998961504987041, [0.7667410642285428, 0.37519352553157076, 0.0196467699476887], 1.1615813597078024)),
    (('fermi', 3, 5, [-1.0, 0.0, 2.0], 1.7, 0.6),
     (66.7018594207378, [0.9381965337364115, 0.7349725994665188, 0.08471056573073577], 1.757879698933666)),
    (('fermi', 4, 2, [0.5, -0.25, 0.0, 1.5], 1.0, 0.0),
     (7.428013336265817, [0.2863750089606949, 0.4891424192210222, 0.4191815624975851, 0.11686844935446368], 1.3115674400337658)),
    (('fermi', 4, 2, [0.5, -0.25, 0.0, 1.5], 1.0, 0.4),
     (13.021244639221154, [0.32939581232290777, 0.5486474845152391, 0.4758316196908844, 0.13579951840373622], 1.4896744349327673)),
    (('bose', 2, 3, [1.0, 2.0], 200.0, 0.0),
     (1.0, [1.3838965267367376e-87, 1.9151695967140057e-174], 1.3838965267367376e-87)),
    (('bose', 2, 3, [1.0, 2.0], 200.0, 1.5),
     (1.9424263952412558e+130, [3.0000000000000004, 1.3838965267367378e-87], 3.0000000000000004)),
    (('fermi', 2, 3, [1.0, -0.5], 200.0, 0.0),
     (2.6881171418161356e+43, [1.3838965267367376e-87, 1.0], 1.0)),
    (('bose', 1, 6, [0.0], 0.9, -2.0),
     (1.1980295867273663, [0.19801002232877327], 0.19801002232877327)),
    (('bose', 1, 6, [0.0], 0.9, 0.0),
     (7.0, [3.0], 3.0)),
    (('bose', 1, 6, [0.0], 0.9, 0.5),
     (39.3024558529884, [4.553798242482292], 4.553798242482292)),
]


@pytest.mark.parametrize("point, expected", THERMO_GOLDEN)
def test_thermo_tolerance_golden(point, expected):
    kind, n, p, energies, beta, mu = point
    got = occupation_summary(AlgebraSpec(Kind(kind), n, p), beta, energies, mu)
    assert _all_close(_flat(got), _flat(expected), 1e-12)


def test_recurrence_matches_the_basis_sum():
    betas, mus = (0.5, 3.0, 250.0), (-1.0, 0.5, 2.0)
    refused = 0
    for spec in small_grid(4, 4):
        energies = [0.75, -0.5, 1.5, -1.25][:spec.n]
        for beta in betas:
            for mu in mus:
                try:
                    want = basis_sum(spec, beta, energies, mu)
                except ValueError:
                    refused += 1
                    with pytest.raises(ValueError, match=f"beta={beta!r}, mu={mu!r}"):
                        occupation_summary(spec, beta, energies, mu)
                    continue
                got = occupation_summary(spec, beta, energies, mu)
                assert _all_close(_flat(got), _flat(want), 1e-12), (spec, beta, mu)
    assert 0 < refused < len(small_grid(4, 4)) * len(betas) * len(mus)


def test_thermo_command_builds_no_basis(monkeypatch, capsys, built_spaces):
    def refuse(*args, **kwargs):
        raise AssertionError("thermo built a basis")

    # every enumeration (FockSpace.basis, iter_runs, basis_text) reads the suffix table
    monkeypatch.setattr(basis, "_suffix_table", refuse)
    argv = ["thermo", "--kind", "bose", "--n", "3", "--p", "4", "--beta", "0.5,2",
            "--mu=-1,0.5", "--energies", "1,0,-0.5"]
    for extra in ([], ["--json"]):
        assert cli.main(argv + extra) == 0
        assert capsys.readouterr().out
    assert built_spaces == []


def test_thermo_runs_far_past_any_enumerable_basis(capsys):
    # fermi n=40, p=20 has sum_{k<=20} C(40, k) basis vectors
    xi = sum(math.comb(40, k) for k in range(21))
    assert cli.main(["thermo", "--kind", "fermi", "--n", "40", "--p", "20", "--beta", "1",
                     "--mu=0"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert float(row[2]) == xi == 618679078298.0
    # a mode is occupied in the states of the other 39 modes below grade 20
    mean = sum(math.comb(39, k) for k in range(20)) / xi
    assert _all_close([float(x) for x in row[3:43]], [mean] * 40, 1e-12)
    assert math.isclose(float(row[43]), 40 * mean, rel_tol=1e-12)
