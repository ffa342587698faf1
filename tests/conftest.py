import itertools

import pytest

from fockcap import AlgebraSpec, Kind
from fockcap.operators import fock_space


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


@pytest.fixture
def fresh_spaces():
    """Empty the shared FockSpace cache before and after a test that patches
    what the spaces are built from."""
    fock_space.cache_clear()
    yield
    fock_space.cache_clear()
