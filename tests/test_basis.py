from math import comb

import pytest
from hypothesis import given, strategies as st

from fockcap import (AlgebraSpec, Kind, basis_csv, dimension, enumerate_basis,
                     fermi_cap_note, graded_dimensions, grade_offsets, rank,
                     unrank, validate_vector)

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


def test_dimension_equals_enumeration_and_grade_sum():
    for kind in (Kind.FERMI, Kind.BOSE):
        for n in range(1, 7):
            for p in range(1, 7):
                spec = AlgebraSpec(kind, n, p)
                graded = graded_dimensions(spec)
                assert dimension(spec) == len(enumerate_basis(spec)) == sum(graded)


def test_graded_dimensions_are_binomials():
    for spec in small_grid(6, 6):
        expected = [
            (comb(spec.n, k) if k <= spec.n else 0) if spec.kind is Kind.FERMI
            else comb(spec.n + k - 1, k)
            for k in range(spec.p + 1)
        ]
        assert graded_dimensions(spec) == expected


def test_graded_dimensions_frozen():
    assert graded_dimensions(AlgebraSpec(Kind.FERMI, 4, 2)) == [1, 4, 6]
    assert graded_dimensions(AlgebraSpec(Kind.BOSE, 2, 2)) == [1, 2, 3]
    for kind in (Kind.FERMI, Kind.BOSE):
        assert graded_dimensions(AlgebraSpec(kind, 5, 1)) == [1, 5]


def test_enumeration_is_graded():
    for spec in small_grid(5, 5):
        totals = [sum(v) for v in enumerate_basis(spec)]
        assert totals == sorted(totals)


def test_rank_unrank_roundtrip_everywhere():
    for spec in small_grid(4, 4):
        for r, v in enumerate(enumerate_basis(spec)):
            assert rank(spec, v) == r
            assert unrank(spec, r) == v


def test_rank_frozen_examples():
    assert rank(AlgebraSpec(Kind.FERMI, 2, 1), (0, 0)) == 0
    assert unrank(AlgebraSpec(Kind.BOSE, 2, 2), 5) == (2, 0)


@given(st.sampled_from(["fermi", "bose"]), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 10_000))
def test_unrank_rank_roundtrip_property(kind, n, p, seed):
    spec = AlgebraSpec(Kind(kind), n, p)
    r = seed % dimension(spec)
    assert rank(spec, unrank(spec, r)) == r


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


def test_inadmissible_vectors_rejected():
    spec = AlgebraSpec(Kind.FERMI, 2, 1)
    with pytest.raises(ValueError):
        rank(spec, (1, 1))            # total exceeds the cap
    with pytest.raises(ValueError):
        rank(spec, (2, 0))            # fermionic entry out of range
    with pytest.raises(ValueError):
        rank(spec, (0, 0, 0))         # wrong mode count
    with pytest.raises(ValueError):
        validate_vector(spec, (-1, 0))
    with pytest.raises(ValueError):
        validate_vector(spec, (True, False))  # bool is an int subclass
    with pytest.raises(ValueError):
        unrank(spec, 3)
    with pytest.raises(ValueError):
        unrank(spec, -1)
    with pytest.raises(ValueError):
        unrank(spec, True)            # bool is an int subclass


def test_basis_csv_layout():
    text = "".join(basis_csv(AlgebraSpec(Kind.BOSE, 2, 1)))
    lines = text.strip().splitlines()
    assert lines[0] == "rank,total,occ_1,occ_2"
    assert lines[1] == "0,0,0,0"
    assert lines[2] == "1,1,0,1"
    assert lines[3] == "2,1,1,0"
