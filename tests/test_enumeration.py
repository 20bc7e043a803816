"""Index enumeration: the packed walk of msf._alphas_cached against the
earlier recursion (conftest.ref_alphas) and the orbit counts of the oracle.

The walk must give the same tuple in the same order, since that order is
the order of the basis command's output, and its counts must match the
brute-force orbit count of the n-slot ring, which shares no code with it.
"""

import itertools

import pytest

from conftest import ref_alphas
from multisym import msf, oracle
from multisym.coeffring import ZZ
from multisym.msf import INF, _basis_symbol, alpha_weight, alphas_of_multidegree, basis_alphas
from multisym.relations import kernel_basis, relations_of
from multisym.rewrite import rewrite

# every multidegree of the boxes (9), (5,5) and (3,3,3)
GRID = [(m, a) for m, top in [(1, 9), (2, 5), (3, 3)]
        for a in itertools.product(range(top + 1), repeat=m)]
CAPS = [None, 0, 1, 2, 3, 4]
SLOTS = [1, 2, 3, 4]


@pytest.mark.parametrize("m, a", GRID, ids=map(str, GRID))
def test_walk_equals_the_recursion(m, a):
    for cap in CAPS:
        got = msf._alphas_cached(m, a, cap)
        assert type(got) is tuple
        assert got == ref_alphas(m, a, cap)
        assert alphas_of_multidegree(m, a, cap) == list(got)


@pytest.mark.parametrize("m, a", GRID, ids=map(str, GRID))
def test_basis_counts_equal_orbit_counts(m, a):
    for n in SLOTS:
        assert len(basis_alphas(n, m, a)) == oracle.count_orbits(n, m, a)


@pytest.mark.parametrize("m, a", GRID, ids=map(str, GRID))
def test_kernel_is_the_filtered_reference(m, a):
    every = ref_alphas(m, a)
    for n in SLOTS:
        assert kernel_basis(n, m, a) == [al for al in every if alpha_weight(al) > n]


@pytest.mark.parametrize("n, m, a", [(1, 2, (2, 2)), (2, 1, (6,)), (2, 3, (1, 1, 2))])
def test_relations_of_rewrites_the_reference_kernel(n, m, a):
    want = [(al, rewrite(_basis_symbol(al, INF, m, ZZ)))
            for al in ref_alphas(m, a) if alpha_weight(al) > n]
    assert want
    assert relations_of(n, m, a, ZZ) == want
