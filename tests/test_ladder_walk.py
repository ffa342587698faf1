"""The ladder walk against the rank-map route it replaced, and what `ops` holds.

FockSpace builds a_i^+- by one walk over the enumeration that pairs the j-th
vector of A_k (grade k, v_i below the entry bound, k < p) with the j-th
vector of B_{k+1} (grade k + 1, w_i >= 1).  The route it replaced looks
v +- e_i up in a rank map (conftest.rank_map); it is kept here as the oracle,
with the same coefficient formulas, so the two must agree bit for bit.
"""

import time
import tracemalloc
from fractions import Fraction

import pytest

from fockcap import AlgebraSpec, FockSpace, Kind, MonomialMatrix, basis, cli, operators
from fockcap.operators import (ORTHONORMAL, UNNORMALIZED, BasisTag, _orthonormal_magnitude,
                               operator_json_payload)

from conftest import bumped, one_vector_runs, rank_map, small_grid

NORMALIZATIONS = (UNNORMALIZED, ORTHONORMAL)


def prefix_sign(v, i):
    """Fermionic reordering sign (-1)^(v_1+...+v_{i-1}) for 1-based mode i."""
    return -1 if sum(v[: i - 1]) % 2 else 1


def rank_map_ladder(space, i, delta, normalization):
    """a_i^+ (delta = +1) or a_i^- (delta = -1) by looking up v + delta*e_i in
    the rank map: the route the walk replaced, with its coefficients."""
    spec, index, p = space.spec, rank_map(space), space.spec.p
    targets, coefs = [], []
    for v in space.basis:
        w = bumped(v, i, delta)
        row = index.get(w, -1)
        sign = prefix_sign(v, i) if spec.kind is Kind.FERMI else 1
        if row < 0:
            coef = 0
        elif normalization == ORTHONORMAL:
            u = w if delta > 0 else v
            coef = sign * _orthonormal_magnitude(u[i - 1], sum(u), p)
        elif delta > 0:
            coef = sign
        else:
            coef = sign * v[i - 1] * (p - sum(v) + 1)
        targets.append(row)
        coefs.append(coef)
    denom = p if normalization == UNNORMALIZED and delta < 0 else 1
    return MonomialMatrix(len(space.basis), targets, coefs, denom, BasisTag(spec, normalization))


def _bits(coefs):
    return [(type(x), repr(x)) for x in coefs]  # a float's repr round-trips its bits


def _assert_walk_is_the_rank_map_route(spec):
    space = FockSpace(spec)
    for i in range(1, spec.n + 1):
        for delta in (+1, -1):
            for normalization in NORMALIZATIONS:
                got = space.ladder(i, delta, normalization)
                want = rank_map_ladder(space, i, delta, normalization)
                key = (spec, i, delta, normalization)
                assert got.target == want.target, key
                assert _bits(got.coef) == _bits(want.coef), key
                assert (got.rows, got.denom, got.exact, got.tag) == \
                    (want.rows, want.denom, want.exact, want.tag), key


@pytest.mark.parametrize("spec", small_grid(4, 4) + [AlgebraSpec(Kind.BOSE, 4, 30),
                                                      AlgebraSpec(Kind.FERMI, 14, 6)],
                         ids=lambda spec: f"{spec.kind.value}-{spec.n}-{spec.p}")
def test_walk_is_the_rank_map_route_bit_for_bit(spec):
    _assert_walk_is_the_rank_map_route(spec)


def test_walk_stops_at_the_top_grade_not_at_the_cap():
    spec = AlgebraSpec(Kind.FERMI, 2, 10 ** 6)
    start = time.perf_counter()
    _assert_walk_is_the_rank_map_route(spec)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("edit", [lambda b: b[:1] + b[2:], lambda b: b[:2] + b[1:],
                                  lambda b: [b[1], b[0]] + b[2:], lambda b: b[:-1],
                                  lambda b: b[::-1], lambda b: [v for v in b if sum(v) != 1]],
                         ids=["drop", "repeat", "swap-grades", "drop-last", "reversed",
                              "drop-grade"])
@pytest.mark.parametrize("spec", [AlgebraSpec(Kind.BOSE, 2, 3), AlgebraSpec(Kind.FERMI, 3, 2)],
                         ids=lambda spec: f"{spec.kind.value}-{spec.n}-{spec.p}")
def test_walk_over_a_faulty_enumeration_pairs_what_it_can(monkeypatch, spec, edit):
    # an operator comes back, one column per listed vector; every entry it holds
    # steps one grade in the direction of delta, and no row holds two entries
    monkeypatch.setattr(operators, "iter_runs", lambda s: one_vector_runs(s, edit))
    space = FockSpace(spec)
    listed = space.basis
    for i in range(1, spec.n + 1):
        for delta in (+1, -1):
            for normalization in NORMALIZATIONS:
                op = space.ladder(i, delta, normalization)
                assert op.shape == (len(listed), len(listed))
                rows = [r for r, c, x in op._live()]
                assert len(rows) == len(set(rows))
                for r, c, x in op._live():
                    assert sum(listed[r]) == sum(listed[c]) + delta


def test_the_walk_reads_the_enumeration_through_operators_iter_runs(monkeypatch):
    # the fault catalogue and the tests above inject enumerations by this name
    calls = []
    original = operators.iter_runs

    def recorded(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(operators, "iter_runs", recorded)
    spec = AlgebraSpec(Kind.BOSE, 3, 4)
    space = FockSpace(spec)
    assert space.ladder(2, +1).nnz and calls == [spec]
    # a space reads the enumeration once: its other walks, basis and grades reuse it
    assert space.ladder(2, -1, ORTHONORMAL).nnz and calls == [spec]
    assert len(space.basis) == len(space.grades) == 35 and calls == [spec]
    assert FockSpace(spec).ladder(1, +1).nnz and calls == [spec, spec]
    monkeypatch.setattr(operators, "iter_runs", lambda s: one_vector_runs(s, lambda b: b[::-1]))
    assert FockSpace(spec).ladder(2, +1).nnz == 0  # reversed: no grade k + 1 follows grade k


def test_no_walk_forms_a_vector(monkeypatch):
    # each coefficient reads v_i, the grade and, for Fermi, the parity of modes 1..i-1;
    # the guard catches (a,) + w
    class Suffix(tuple):
        def __radd__(self, head):
            raise AssertionError("formed a vector")

    keys = [(i, delta, normalization) for i in range(1, 4) for delta in (+1, -1)
            for normalization in NORMALIZATIONS]
    for spec in (AlgebraSpec(Kind.BOSE, 3, 5), AlgebraSpec(Kind.FERMI, 3, 2)):
        want = FockSpace(spec)
        want = {key: want.ladder(*key) for key in keys}
        runs = [(k, a, [Suffix(w) for w in row]) for k, a, row in basis.iter_runs(spec)]
        with monkeypatch.context() as mp:
            mp.setattr(operators, "iter_runs", lambda s: iter(runs))
            space = FockSpace(spec)
            for key in keys:
                got = space.ladder(*key)
                assert (got.target, _bits(got.coef)) == \
                    (want[key].target, _bits(want[key].coef)), (spec, key)


def test_a_fermi_orthonormal_walk_holds_ranks_not_vectors():
    # the walk forming (a,) + w for every vector peaked at 1.37 MB here
    spec = AlgebraSpec(Kind.FERMI, 14, 6)
    space = FockSpace(spec)
    space.runs  # listed before tracing, as a space that built another walk holds them
    tracemalloc.start()
    try:
        space.ladder(5, -1, ORTHONORMAL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.8e6


def test_the_walk_reads_no_basis_list_and_no_rank_map(monkeypatch):
    def refuse(space):
        raise AssertionError("read a basis list or the rank map")

    # FockSpace holds no rank map to read (test_removed_second_routes_are_gone)
    monkeypatch.setattr(FockSpace, "basis", property(refuse))
    space = FockSpace(AlgebraSpec(Kind.BOSE, 3, 4))
    for normalization in NORMALIZATIONS:
        assert space.ladder(2, +1, normalization).nnz == space.ladder(2, -1, normalization).nnz


@pytest.mark.parametrize("op", ["create", "annihilate"])
def test_unnormalized_ops_builds_no_basis_list(monkeypatch, tmp_path, op):
    def refuse(space):
        raise AssertionError("ops built the basis list")

    monkeypatch.setattr(FockSpace, "basis", property(refuse))
    out = tmp_path / "op.json"
    assert cli.main(["ops", "--kind", "bose", "--n", "3", "--p", "4", "--op", op, "--i", "2",
                     "--json", "-o", str(out)]) == 0
    assert out.read_text().startswith("{")


def test_ops_export_peak_is_half_that_of_the_rank_map_route(tmp_path):
    # the rank-map route held the basis (3.7 MB), the rank map (3.9 MB) and a list
    # of the entries (5 MB) and peaked at 10.2 MB here
    argv = ["ops", "--kind", "bose", "--n", "4", "--p", "30", "--op", "annihilate", "--i", "2",
            "--json", "-o", str(tmp_path / "op.json")]
    assert cli.main(argv) == 0  # modules imported and caches warm before tracing
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.1e6


def test_row_major_sorts_only_what_is_out_of_order():
    space = FockSpace(AlgebraSpec(Kind.BOSE, 2, 3))
    ops = [space.ladder(1, +1), space.ladder(2, -1), space.bilinear(1, 2), space.number(),
           space.ladder(1, +1).transpose(), MonomialMatrix(3, [2, 0, 2], [1, 5, 3]),
           MonomialMatrix(3, [1, 1, -1], [2, 0, 0])]
    for op in ops:
        assert list(op._row_major()) == sorted(op._live())
        assert op.entries() == [(r, c, op.get(r, c)) for r, c, _ in sorted(op._live())]


def test_payload_entries_are_an_iterator_of_tuples():
    op = FockSpace(AlgebraSpec(Kind.FERMI, 2, 2)).ladder(1, -1)
    entries = operator_json_payload(op)["entries"]
    assert iter(entries) is entries
    assert [Fraction(x, d) for r, c, x, d in entries] == [v for r, c, v in op.entries()]
