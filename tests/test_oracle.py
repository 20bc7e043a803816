"""Brute-force invariant oracle: orbit sums, orbit counts, invariance."""

import math
import random

import pytest

from multisym import oracle
from multisym.coeffring import QQ, ZZ, Zmod
from multisym.oracle import (count_orbits, invariant_basis, is_invariant,
                             monomials_of_multidegree, orbit_sum)
from multisym.polyring import NPoly, parse_npoly


def test_orbit_sum_examples():
    got = orbit_sum((1, 0), 2, 1, ZZ)
    assert got == parse_npoly("x1(1) + x1(2)", 2, 1, ZZ)
    # a symmetric monomial is its own orbit, coefficient one
    got = orbit_sum((1, 1), 2, 1, ZZ)
    assert got == parse_npoly("x1(1)*x1(2)", 2, 1, ZZ)
    got = orbit_sum((1, 0, 0, 2), 2, 2, ZZ)
    assert got == parse_npoly("x1(1)*x2(2)^2 + x2(1)^2*x1(2)", 2, 2, ZZ)


def test_orbit_sums_partition_the_monomials():
    n, m, a = 3, 2, (2, 1)
    monos = monomials_of_multidegree(n, m, a)
    assert len(monos) == len(set(monos))
    expected = 1
    for ai in a:
        expected *= math.comb(ai + n - 1, n - 1)
    assert len(monos) == expected
    seen = {}
    for mono in monos:
        p = orbit_sum(mono, n, m, ZZ)
        assert all(c == 1 for c in p.terms.values())
        assert set(p.terms) <= set(monos)
        key = min(p.terms)
        seen.setdefault(key, p)
    assert len(seen) == count_orbits(n, m, a)


def test_invariant_basis_properties():
    for n, m, a in [(2, 1, (3,)), (3, 2, (1, 1)), (2, 3, (1, 1, 1))]:
        basis = invariant_basis(n, m, a, QQ)
        assert len(basis) == count_orbits(n, m, a)
        supports = [frozenset(p.terms) for p in basis]
        # orbit sums have pairwise disjoint supports, hence independence
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert not (supports[i] & supports[j])
        for p in basis:
            assert is_invariant(p, n)
        union = set()
        for s in supports:
            union |= s
        assert union == set(monomials_of_multidegree(n, m, a))


def test_count_orbits_small_values():
    # single variable: orbits of degree d with n slots = partitions into <= n parts
    assert count_orbits(2, 1, (2,)) == 2
    assert count_orbits(2, 1, (3,)) == 2
    assert count_orbits(3, 1, (3,)) == 3
    assert count_orbits(1, 2, (2, 2)) == 1
    # {x1(1)x2(1), x1(2)x2(2)} and {x1(1)x2(2), x1(2)x2(1)}
    assert count_orbits(2, 2, (1, 1)) == 2


def test_is_invariant():
    assert not is_invariant(parse_npoly("x1(1)", 2, 1, ZZ), 2)
    assert is_invariant(parse_npoly("x1(1) + x1(2)", 2, 1, ZZ), 2)
    assert is_invariant(NPoly.zero(3, 2, ZZ), 3)
    p = parse_npoly("x1(1)*x2(1) + x1(2)*x2(2) + x1(3)*x2(3)", 3, 2, Zmod(2))
    assert is_invariant(p, 3)
    q = parse_npoly("x1(1)*x2(2)", 2, 2, ZZ)
    assert not is_invariant(q, 2)


def test_adjacent_swaps_decide_full_invariance():
    # adjacent transpositions generate the whole permutation group, so the
    # cheap check must agree with testing every permutation
    import itertools
    from multisym.polyring import sn_act
    rng = random.Random("gens")
    for n in (2, 3, 4):
        m = 2
        perms = list(itertools.permutations(range(1, n + 1)))
        for trial in range(12):
            exps = tuple(rng.randint(0, 2) for _ in range(n * m))
            p = NPoly.monomial(exps, n, m, ZZ, ZZ.one)
            if trial % 3 == 0:
                q = NPoly.zero(n, m, ZZ)
                for perm in perms:
                    q = q + sn_act(perm, p)
                p = q
            brute = all(sn_act(perm, p) == p for perm in perms)
            assert is_invariant(p, n) == brute


def test_random_symmetrization_is_invariant():
    import itertools
    from multisym.polyring import sn_act
    rng = random.Random("symm")
    for _ in range(10):
        n, m = rng.choice([(2, 2), (3, 1), (3, 2)])
        exps = tuple(rng.randint(0, 2) for _ in range(n * m))
        p = NPoly.monomial(exps, n, m, ZZ, ZZ.one)
        total = NPoly.zero(n, m, ZZ)
        for perm in itertools.permutations(range(1, n + 1)):
            total = total + sn_act(perm, p)
        assert is_invariant(total, n)


def test_monomial_enumeration_is_cached_and_immutable():
    # orbit representatives are cached too; a filled entry would skip the
    # enumeration that count_orbits is expected to hit below
    oracle._orbit_reps_cached.cache_clear()
    oracle._monomials_cached.cache_clear()
    got = monomials_of_multidegree(2, 2, (2, 1))
    assert isinstance(got, tuple) and all(isinstance(mono, tuple) for mono in got)
    # a list multidegree reaches the same cache entry, the tuple itself
    assert monomials_of_multidegree(2, 2, [2, 1]) is got
    assert oracle._monomials_cached.cache_info().currsize == 1
    for bad in ((2,), [2, 1, 0], ()):
        with pytest.raises(ValueError):
            monomials_of_multidegree(2, 2, bad)
    assert oracle._monomials_cached.cache_info().currsize == 1
    # orbit counts read the same enumeration
    assert count_orbits(2, 2, (2, 1)) == 3
    assert oracle._monomials_cached.cache_info().hits >= 2
