import itertools
from math import comb, log10

import pytest

from fockcap import (AlgebraSpec, Kind, basis_csv, dimension, enumerate_basis,
                     fermi_cap_note, graded_dimensions, grade_offsets)
from fockcap.basis import log10_dimension_bound

from conftest import brute_basis, small_grid


def test_enumeration_matches_brute_force_oracle():
    for spec in small_grid(4, 4):
        assert enumerate_basis(spec) == brute_basis(spec)


def test_frozen_orderings():
    assert enumerate_basis(AlgebraSpec(Kind.FERMI, 2, 1)) == [(0, 0), (0, 1), (1, 0)]
    assert enumerate_basis(AlgebraSpec(Kind.FERMI, 1, 1)) == [(0,), (1,)]
    assert enumerate_basis(AlgebraSpec(Kind.BOSE, 2, 2)) == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_dimension_closed_forms():
    assert dimension(AlgebraSpec(Kind.FERMI, 4, 2)) == 11
    assert dimension(AlgebraSpec(Kind.BOSE, 3, 3)) == 20
    # cap at p = n recovers the full fermionic count
    assert dimension(AlgebraSpec(Kind.FERMI, 3, 3)) == 8


def test_log10_dimension_bound_is_a_close_lower_bound():
    # the float bound refuses dim commands past the digit limit; it must never exceed the truth
    specs = small_grid(6, 6) + [AlgebraSpec(kind, n, p) for kind in Kind
                                for n, p in itertools.product((50, 1000, 10 ** 9), (1, 7, 300))]
    specs += [AlgebraSpec(kind, 1000, 2000) for kind in Kind]
    for spec in specs:
        exact = log10(dimension(spec))
        assert exact - 2 < log10_dimension_bound(spec) <= exact + 1e-9, spec


def test_dimension_equals_enumeration_and_grade_sum():
    for kind in (Kind.FERMI, Kind.BOSE):
        for n in range(1, 7):
            for p in range(1, 7):
                spec = AlgebraSpec(kind, n, p)
                graded = graded_dimensions(spec)
                assert dimension(spec) == len(enumerate_basis(spec)) == sum(graded)


def test_graded_dimensions_are_binomials():
    # one math.comb per grade as the oracle of the running binomial; the Fermi
    # grades past k = n (p > n) are empty
    for spec in small_grid(8, 12):
        n = spec.n
        expected = [comb(n, k) if spec.kind is Kind.FERMI else comb(n + k - 1, k)
                    for k in range(spec.p + 1)]
        assert graded_dimensions(spec) == expected, spec
        assert dimension(spec) == sum(expected), spec


def test_graded_dimensions_frozen():
    assert graded_dimensions(AlgebraSpec(Kind.FERMI, 4, 2)) == [1, 4, 6]
    assert graded_dimensions(AlgebraSpec(Kind.BOSE, 2, 2)) == [1, 2, 3]
    for kind in (Kind.FERMI, Kind.BOSE):
        assert graded_dimensions(AlgebraSpec(kind, 5, 1)) == [1, 5]


def test_enumeration_is_graded():
    for spec in small_grid(5, 5):
        totals = [sum(v) for v in enumerate_basis(spec)]
        assert totals == sorted(totals)


def test_grade_offsets_partition_the_space():
    for spec in small_grid(4, 4):
        offsets = grade_offsets(spec)
        assert offsets[0] == 0
        assert offsets[-1] == dimension(spec)
        graded = graded_dimensions(spec)
        assert [b - a for a, b in zip(offsets, offsets[1:])] == graded


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        AlgebraSpec(Kind.FERMI, 0, 1)
    with pytest.raises(ValueError):
        AlgebraSpec(Kind.BOSE, 2, 0)
    with pytest.raises(ValueError):
        AlgebraSpec("neither", 1, 1)
    # bool is an int subclass; n=True would otherwise pass as n=1
    with pytest.raises(ValueError):
        AlgebraSpec(Kind.BOSE, True, 2)
    with pytest.raises(ValueError):
        AlgebraSpec(Kind.BOSE, 2, True)


def test_fermi_loose_cap_is_accepted_with_note():
    spec = AlgebraSpec(Kind.FERMI, 3, 5)
    assert dimension(spec) == 8
    assert fermi_cap_note(spec) is not None
    assert fermi_cap_note(AlgebraSpec(Kind.FERMI, 5, 3)) is None
    assert fermi_cap_note(AlgebraSpec(Kind.BOSE, 1, 5)) is None


def test_basis_csv_layout():
    text = "".join(basis_csv(AlgebraSpec(Kind.BOSE, 2, 1)))
    lines = text.strip().splitlines()
    assert lines[0] == "rank,total,occ_1,occ_2"
    assert lines[1] == "0,0,0,0"
    assert lines[2] == "1,1,0,1"
    assert lines[3] == "2,1,1,0"
