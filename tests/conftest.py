import gc
import itertools
import math
import weakref
from fractions import Fraction

import pytest

from fockcap import AlgebraSpec, FockSpace, Kind, MonomialMatrix, basis, models
from fockcap.operators import ORTHONORMAL, UNNORMALIZED, BasisTag, grade_diagonal


def small_grid(n_max=4, p_max=4):
    """Every spec with n <= n_max, p <= p_max, both kinds."""
    return [AlgebraSpec(kind, n, p)
            for kind in (Kind.FERMI, Kind.BOSE)
            for n in range(1, n_max + 1)
            for p in range(1, p_max + 1)]


def brute_basis(spec):
    """Independent enumeration oracle: filter the full product lattice."""
    top = 1 if spec.kind is Kind.FERMI else spec.p
    vectors = [v for v in itertools.product(range(top + 1), repeat=spec.n)
               if sum(v) <= spec.p]
    return sorted(vectors, key=lambda v: (sum(v), v))


def one_vector_runs(spec, edit):
    """The basis of spec, listed and then edited by edit, as the enumeration's runs
    (k, a, row), one run (|v|, v_1, [v_2..v_n]) a vector: how a faulty enumeration is
    injected at the seam operators.iter_runs that FockSpace.basis, FockSpace.grades and
    the ladder walk read.  The list is read from basis.iter_runs, not from the seam."""
    vectors = edit([(a,) + w for _, a, row in basis.iter_runs(spec) for w in row])
    return iter([(sum(v), v[0], [v[1:]]) for v in vectors])


def bumped(v, i, delta):
    """v + delta*e_i for the 1-based mode i."""
    return v[: i - 1] + (v[i - 1] + delta,) + v[i:]


def rank_map(space):
    """The rank of each basis vector of space: the oracle rank map, which no
    route in fockcap reads."""
    return {v: r for r, v in enumerate(space.basis)}


def gram_matrix(space):
    """The Gram form G of space as a diagonal operator, integer coefficients
    over one common denominator: at v of grade k = |v|,

        Fermi:  G(v, v) = <v|v> = p! / (p^k (p-k)!)
        Bose:   G(v, v) = <v|v> = p! * prod_i v_i! / (p^k (p-k)!)

    the grade factor perm(p, k) / p^k times, for Bose, an integer diagonal.
    The oracle of FockSpace.gram_ratio, as normalize_by_gram is of normalize."""
    p = space.spec.p
    G = grade_diagonal(space, lambda k: Fraction(math.perm(p, k), p ** k))
    if space.spec.kind is Kind.BOSE:
        dim = len(space.basis)
        G = G @ MonomialMatrix(dim, range(dim), [math.prod(map(math.factorial, v))
                                                 for v in space.basis], 1, G.tag)
    return G


def normalize_by_gram(op, gram):
    """op conjugated into the orthonormal basis by the oracle Gram matrix:
    entry(r, c) * sqrt(g_r / g_c), the g its integer coefficients over their
    one denominator, so that true division rounds g_r / g_c correctly."""
    if op.tag != gram.tag:
        raise ValueError(f"basis tag mismatch: {op.tag!r} vs {gram.tag!r}")
    g = gram.coef
    return op.map_entries(lambda r, c, val: float(val) * math.sqrt(g[r] / g[c]),
                          BasisTag(gram.tag.spec, ORTHONORMAL))


def stepped(space, op, step):
    """op with the entry of each column v moved to the row of step(v) in the
    oracle rank map, its coefficient kept, and dropped where step(v) is no
    basis vector: a ladder that steps to the wrong vector."""
    index = rank_map(space)
    targets, coefs = op.target[:-1], op.coef[:-1]
    for c, v in enumerate(space.basis):
        if coefs[c]:
            targets[c] = index.get(step(v), -1)
            coefs[c] = coefs[c] if targets[c] >= 0 else 0
    return MonomialMatrix(op.rows, targets, coefs, op.denom, op.tag)


def products(space, table, normalization=UNNORMALIZED):
    """(t_ij, a_i^+ @ a_j^-) for every nonzero t_ij, in row-major (i, j) order."""
    n = space.spec.n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            t = table[i - 1][j - 1]
            if t != 0:
                yield t, space.ladder(i, +1, normalization) @ space.ladder(j, -1, normalization)


def diagonal_hamiltonian(spec, energies):
    """Exact H = sum_i eps_i a_i^+ a_i^-, formed by matrix products: the
    product-route oracle of models.diagonal_spectrum."""
    table = models.diagonal_table(spec, [Fraction(e) for e in energies])
    space = FockSpace(spec)
    zero = grade_diagonal(space, lambda k: 0)
    return sum((t * product for t, product in products(space, table)), zero)


def spectrum_of_diagonal(h):
    """Exact spectrum of a diagonal operator; coincident values merge.  With
    diagonal_hamiltonian, the product-route oracle of models.diagonal_spectrum."""
    if h.max_abs(lambda r, c: r != c) != 0:
        raise ValueError("operator is not diagonal in the occupation basis")
    return models._merged(((x, 1) for x in h.coef[:-1]), h.denom)


@pytest.fixture
def built_spaces(monkeypatch):
    """Weak references to every FockSpace built while the test runs."""
    refs = []
    init = FockSpace.__init__

    def recorded(self, spec):
        init(self, spec)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(FockSpace, "__init__", recorded)
    return refs


def alive(refs):
    """The spaces of refs that a full garbage collection leaves alive."""
    gc.collect()
    return [space for space in (ref() for ref in refs) if space is not None]
