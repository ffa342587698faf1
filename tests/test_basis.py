import itertools
import time
from math import comb, log10

import pytest

from fockcap import (AlgebraSpec, FockSpace, Kind, basis_csv, dimension, fermi_cap_note,
                     graded_dimensions, grade_offsets)
from fockcap.basis import log10_dimension_bound

from conftest import brute_basis, small_grid


def test_enumeration_matches_brute_force_oracle():
    for spec in small_grid(4, 4):
        assert FockSpace(spec).basis == brute_basis(spec)


def test_sign_and_top_of_a_spec():
    assert (Kind.FERMI.sign, Kind.BOSE.sign) == (-1, 1)
    # top is the highest grade that holds a vector, loose Fermi caps included
    for spec in small_grid(4, 4):
        assert spec.top == max(map(sum, brute_basis(spec)))
    assert AlgebraSpec(Kind.FERMI, 3, 10**9).top == 3
    assert list(AlgebraSpec(Kind.FERMI, 3, 10**9).grade_steps) == [3, 2, 1]
    assert list(AlgebraSpec(Kind.BOSE, 3, 4).grade_steps) == [1, 2, 3, 4]


def test_frozen_orderings():
    assert FockSpace(AlgebraSpec(Kind.FERMI, 2, 1)).basis == [(0, 0), (0, 1), (1, 0)]
    assert FockSpace(AlgebraSpec(Kind.FERMI, 1, 1)).basis == [(0,), (1,)]
    assert FockSpace(AlgebraSpec(Kind.BOSE, 2, 2)).basis == [
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
                assert dimension(spec) == len(FockSpace(spec).basis) == sum(graded)


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
        totals = [sum(v) for v in FockSpace(spec).basis]
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


def test_algebra_spec_contract():
    # a NamedTuple that checks its fields in __new__, as the frozen dataclass did
    spec = AlgebraSpec("bose", 2, 3)
    assert spec.kind is Kind.BOSE
    assert spec == AlgebraSpec(Kind.BOSE, 2, 3) == (Kind.BOSE, 2, 3)
    assert hash(spec) == hash(AlgebraSpec(Kind.BOSE, 2, 3))
    assert spec != AlgebraSpec(Kind.FERMI, 2, 3) and spec != AlgebraSpec(Kind.BOSE, 2, 4)
    assert len({spec, AlgebraSpec("bose", 2, 3), AlgebraSpec(Kind.BOSE, 3, 2)}) == 2
    assert repr(spec) == "AlgebraSpec(kind=<Kind.BOSE: 'bose'>, n=2, p=3)"
    with pytest.raises(AttributeError):
        spec.p = 4
    with pytest.raises(AttributeError):
        spec.extra = 1  # no instance dict
    with pytest.raises(ValueError, match="number of modes must be a positive integer, got True"):
        AlgebraSpec(Kind.BOSE, True, 2)
    with pytest.raises(ValueError, match="occupation cap must be a positive integer, got 0"):
        AlgebraSpec(Kind.BOSE, 2, 0)
    # _replace goes through the same checks
    assert spec._replace(p=5) == AlgebraSpec(Kind.BOSE, 2, 5)
    with pytest.raises(ValueError):
        spec._replace(p=0)
    assert spec._replace(kind="fermi").kind is Kind.FERMI


def test_fermi_loose_cap_is_accepted_with_note():
    spec = AlgebraSpec(Kind.FERMI, 3, 5)
    assert dimension(spec) == 8
    assert fermi_cap_note(spec) is not None
    assert fermi_cap_note(AlgebraSpec(Kind.FERMI, 3, 3)) is not None  # p = n does not bind either
    assert fermi_cap_note(AlgebraSpec(Kind.FERMI, 5, 3)) is None
    assert fermi_cap_note(AlgebraSpec(Kind.BOSE, 1, 5)) is None


def test_basis_csv_layout():
    text = "".join(basis_csv(AlgebraSpec(Kind.BOSE, 2, 1)))
    lines = text.strip().splitlines()
    assert lines[0] == "rank,total,occ_1,occ_2"
    assert lines[1] == "0,0,0,0"
    assert lines[2] == "1,1,0,1"
    assert lines[3] == "2,1,1,0"


# n = 1, Fermi with p < n (the cap binds) and with p >= n (it does not), up to n = 6, p = 7
KERNEL_SPECS = [AlgebraSpec(kind, n, p) for kind in Kind for n in range(1, 7) for p in range(1, 8)]


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=lambda s: f"{s.kind.value}-{s.n}-{s.p}")
def test_iter_basis_and_basis_csv_match_the_per_vector_oracles(spec):
    expected = brute_basis(spec)
    assert FockSpace(spec).basis == expected
    rows = "".join(f"{r},{sum(v)},{','.join(map(str, v))}\n" for r, v in enumerate(expected))
    header = ",".join(["rank", "total"] + [f"occ_{i}" for i in range(1, spec.n + 1)]) + "\n"
    assert "".join(basis_csv(spec)) == header + rows


def test_one_bose_mode_lists_in_time_linear_in_the_cap():
    # grade k is the one vector (k,); a loop over the heads 0..k of each grade,
    # or a stars-and-bars tuple of range(k + 1), makes this quadratic in p
    p = 10 ** 5
    start = time.perf_counter()
    text = "".join(basis_csv(AlgebraSpec(Kind.BOSE, 1, p)))
    assert time.perf_counter() - start < 5.0
    assert text.startswith("rank,total,occ_1\n0,0,0\n1,1,1\n2,2,2\n")
    assert text.endswith("\n99999,99999,99999\n100000,100000,100000\n")
    assert text.count("\n") == p + 2
    assert text == "rank,total,occ_1\n" + "".join(f"{k},{k},{k}\n" for k in range(p + 1))
    assert FockSpace(AlgebraSpec(Kind.BOSE, 1, 7)).basis == [(k,) for k in range(8)]
