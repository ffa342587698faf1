"""End-to-end acceptance checks, one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete; every tolerance is pinned here.
"""

import itertools
import time
from fractions import Fraction
from math import comb, factorial

from fockcap import (AlgebraSpec, FockSpace, Kind, check_backend_agreement, check_cap,
                     check_classical_limit, check_hermiticity, check_mixed,
                     check_number, check_pp, check_vacuum_cyclic,
                     diagonal_spectrum, dimension, graded_dimensions, normalize,
                     quadratic_hamiltonian_spectrum, run_lie_suite, run_suite, toy_levels,
                     toy_spectrum)
from fockcap.relations import EXACT, FLOAT

from conftest import diagonal_hamiltonian, gram_matrix, normalize_by_gram, spectrum_of_diagonal

GRID = [AlgebraSpec(kind, n, p)
        for kind in (Kind.FERMI, Kind.BOSE)
        for n in range(1, 5)
        for p in range(1, 5)]

LIE_GRID = [AlgebraSpec(kind, n, p)
            for kind in (Kind.FERMI, Kind.BOSE)
            for n in range(1, 4)
            for p in range(1, 5)]


def _announce(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_exact_relation_suite():
    t0 = time.perf_counter()
    reports = []
    for spec in GRID:
        space = FockSpace(spec)
        reports += check_pp(space)
        reports += check_number(space)
        reports += check_mixed(space)
        reports += check_cap(space)
        reports += check_hermiticity(space)
    elapsed = time.perf_counter() - t0
    zero = all(rep.residual == 0 for rep in reports)
    ok = zero and elapsed < 10.0
    _announce(1, "exact relation suite on the 4x4 grid", ok,
              f"{len(reports)} checks, all residuals exactly 0: {zero}, {elapsed:.2f}s")


def test_criterion_2_gram_formulas_and_oracle():
    checked = 0
    for spec in GRID:
        space = FockSpace(spec)
        gram = gram_matrix(space)
        basis = space.basis
        values = [gram.get(r, r) for r in range(len(basis))]
        # closed forms
        for g, v in zip(values, basis):
            k = sum(v)
            expected = Fraction(factorial(spec.p), spec.p ** k * factorial(spec.p - k))
            if spec.kind is Kind.BOSE:
                for x in v:
                    expected *= factorial(x)
            assert g == expected
        # independent oracle: vacuum expectation of ladder strings
        create = {i: space.ladder(i, +1) for i in range(1, spec.n + 1)}
        annihilate = {i: space.ladder(i, -1) for i in range(1, spec.n + 1)}
        for g, v in zip(values, basis):
            vec = {0: Fraction(1)}
            for i in range(spec.n, 0, -1):
                for _ in range(v[i - 1]):
                    vec = create[i].apply(vec)
            for i in range(1, spec.n + 1):
                for _ in range(v[i - 1]):
                    vec = annihilate[i].apply(vec)
            assert vec.get(0, Fraction(0)) == g
            checked += 1
    _announce(2, "Gram form vs closed form and matrix-element oracle", True,
              f"{checked} basis vectors on the grid, exact equality")


def test_criterion_3_dimensions_and_grading():
    assert dimension(AlgebraSpec(Kind.FERMI, 4, 2)) == 11
    assert graded_dimensions(AlgebraSpec(Kind.FERMI, 4, 2)) == [1, 4, 6]
    assert dimension(AlgebraSpec(Kind.BOSE, 3, 3)) == 20
    checked = 0
    for spec in GRID:
        graded = graded_dimensions(spec)
        expected = [
            (comb(spec.n, k) if k <= spec.n else 0) if spec.kind is Kind.FERMI
            else comb(spec.n + k - 1, k)
            for k in range(spec.p + 1)
        ]
        assert graded == expected
        # brute-force enumeration oracle
        top = 1 if spec.kind is Kind.FERMI else spec.p
        brute = sorted((v for v in itertools.product(range(top + 1), repeat=spec.n)
                        if sum(v) <= spec.p), key=lambda v: (sum(v), v))
        assert FockSpace(spec).basis == brute
        assert dimension(spec) == len(brute) == sum(graded)
        checked += 1
    _announce(3, "dimensions and grading vs closed forms and brute force", True,
              f"{checked} specs, exact equality")


def test_criterion_4_lie_structure():
    exact_reports = 0
    float_reports = 0
    ok = True
    for spec in LIE_GRID:
        for rep in run_lie_suite(spec, "all"):
            if rep.backend == EXACT:
                exact_reports += 1
                ok = ok and rep.passed and rep.residual == 0
            else:
                float_reports += 1
                ok = ok and rep.passed
    _announce(4, "Lie structure (commutators, bracket tables, weights)", ok,
              f"{exact_reports} exact-zero checks + {float_reports} float checks, "
              f"n<=3, p<=4")


def test_criterion_5_toy_model():
    t0 = time.perf_counter()
    for p in (1, 2, 3, 10, 100):
        spec = AlgebraSpec(Kind.BOSE, 2, p)
        h = diagonal_hamiltonian(spec, [1, 1])  # by matrix products, not the closed form
        assert toy_spectrum(p) == spectrum_of_diagonal(h)
    # closed-form level table at p=10: level 3 sits at 12/5 with multiplicity 4
    k, value, mult, gap = toy_levels(10)[3]
    assert (value, mult) == (Fraction(12, 5), 4)
    # p=2 merged spectrum {0: 1, 1: 5}
    assert toy_spectrum(2) == ((Fraction(0), 1), (Fraction(1), 5))
    # level gaps are exactly 1 - 2k/p
    for p in (1, 2, 3, 10, 100):
        rows = toy_levels(p)
        for k, value, _, gap in rows[:-1]:
            assert gap == Fraction(1) - Fraction(2 * k, p)
            assert rows[k + 1][1] - value == gap
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0
    _announce(5, "toy model vs exact diagonalization, p up to 100", ok,
              f"exact level match, {elapsed:.2f}s")


def test_criterion_6_classical_limit():
    p_values = (10, 100, 1000)
    cases = [(Kind.BOSE, 1), (Kind.BOSE, 2), (Kind.FERMI, 2)]
    worst = 0.0
    ok = True
    for kind, n in cases:
        report = check_classical_limit(kind, n, 2, p_values)
        ok = ok and all(d <= 6 / p for d, p in zip(report.deviations, p_values))
        strictly = all(a > b for a, b in zip(report.deviations, report.deviations[1:]))
        ok = ok and strictly
        worst = max(worst, max(d * p for d, p in zip(report.deviations, p_values)))
    _announce(6, "classical limit: window-2 deviation <= 6/p, strictly decreasing",
              ok, f"{len(cases)} cases, worst p*deviation = {worst:.3f} <= 6")


def test_criterion_7_irreducibility_witness():
    ok = True
    for spec in GRID:
        rep = check_vacuum_cyclic(FockSpace(spec))
        ok = ok and rep.passed and rep.residual == 0
    _announce(7, "vacuum-orbit span has full dimension (exact rank)", ok,
              f"{len(GRID)} specs")


def test_criterion_8_backend_agreement():
    ok = True
    worst = 0.0
    for spec in GRID:
        for rep in check_backend_agreement(FockSpace(spec)):
            ok = ok and rep.passed and float(rep.residual) <= 1e-12
            worst = max(worst, float(rep.residual))
    # float quadratic route with diagonal coefficients vs exact diagonal route
    cases = [(AlgebraSpec(Kind.BOSE, 2, p), [Fraction(1), Fraction(1, 2)]) for p in (1, 2, 3, 4)]
    cases += [(AlgebraSpec(Kind.FERMI, 3, 2), [Fraction(1), Fraction(1, 2), Fraction(1, 4)]),
              (AlgebraSpec(Kind.BOSE, 1, 4), [Fraction(3, 2)]),
              (AlgebraSpec(Kind.BOSE, 2, 10), [Fraction(1), Fraction(1)])]
    for spec, eps in cases:
        t = [[float(eps[i]) if i == j else 0.0 for j in range(spec.n)]
             for i in range(spec.n)]
        float_levels = quadratic_hamiltonian_spectrum(spec, t)
        exact_levels = diagonal_spectrum(spec, eps)
        ok = ok and len(float_levels) == len(exact_levels)
        for (fv, fm), (ev, em) in zip(float_levels, exact_levels):
            ok = ok and fm == em and abs(fv - float(ev)) <= 1e-10
    _announce(8, "float backend agrees with exact (1e-12 entries, 1e-10 spectra)",
              ok, f"max entry deviation {worst:.2e}, {len(cases)} spectra compared")


def test_criterion_9_exact_spectrum_at_a_large_cap():
    # bose n=3, p=400: dim C(403, 3), far past any operator route
    t0 = time.perf_counter()
    levels = diagonal_spectrum(AlgebraSpec(Kind.BOSE, 3, 400), (1, 2, 3))
    elapsed = time.perf_counter() - t0
    total = sum(m for _, m in levels)
    ok = len(levels) == 56433 and total == comb(403, 3) and elapsed < 1.0
    _announce(9, "exact diagonal spectrum, bose n=3 p=400", ok,
              f"{len(levels)} levels, total multiplicity {total}, "
              f"{elapsed:.2f}s")


def test_criterion_10_float_suite_at_a_large_cap():
    # bose n=1, p=2000: the Gram form read as ratios, with no Gram matrix
    spec = AlgebraSpec(Kind.BOSE, 1, 2000)
    t0 = time.perf_counter()
    reports = run_suite(spec, FLOAT)
    space = FockSpace(spec)
    down = normalize(space.ladder(1, -1), space)
    elapsed = time.perf_counter() - t0
    oracle = normalize_by_gram(space.ladder(1, -1), gram_matrix(space))
    same = down.target == oracle.target and down.coef == oracle.coef
    ok = all(rep.passed for rep in reports) and same and elapsed < 1.0
    _announce(10, "float relation suite and normalization, bose n=1 p=2000", ok,
              f"{len(reports)} checks pass: {all(rep.passed for rep in reports)}, "
              f"normalized a_1^- equal to the Gram-matrix oracle: {same}, {elapsed:.2f}s")
