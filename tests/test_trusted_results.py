"""Arithmetic results are canonical, and the public constructors still check.

Arithmetic builds its results through a trusted internal constructor that
skips index validation.  These tests rebuild every kind of result through
the validating public constructor, check that no zero coefficient is
stored, and compare the one-dict accumulation of evaluate and
primitive_reduce with running-total references (refimpl's ref_evaluate).
"""

import pytest

from conftest import random_coeff, random_element, seeded
from multisym.coeffring import QQ, ZZ, Zmod
from multisym.monomial import grlex_key
from multisym.msf import INF, MsfElement
from multisym.rewrite import (GenPoly, evaluate, primitive_reduce,
                              reduce_to_monomial_es, rewrite)
from refimpl import ref_evaluate

RINGS = [ZZ, QQ, Zmod(2), Zmod(3), Zmod(5)]
AMBIENTS = [1, 2, 3, 4, INF]


def assert_canonical_msf(z: MsfElement) -> None:
    assert MsfElement(z.n, z.m, z.ring, dict(z.terms)) == z
    assert not any(z.ring.is_zero(c) for c in z.terms.values())


def assert_canonical_genpoly(g: GenPoly) -> None:
    assert GenPoly(g.m, g.ring, dict(g.terms)) == g
    assert not any(g.ring.is_zero(c) for c in g.terms.values())
    for symmono in g.terms:
        syms = [s for s, _ in symmono]
        key = [(grlex_key(nu), i) for i, nu in syms]
        assert key == sorted(key) and len(set(syms)) == len(syms)


def naive_primitive_reduce(p: GenPoly, n) -> GenPoly:
    """primitive_reduce one term at a time, summed with a running total."""
    total = GenPoly.zero(p.m, p.ring)
    for symmono, c in p.terms.items():
        total = total + primitive_reduce(GenPoly(p.m, p.ring, {symmono: c}), n)
    return total


def elements(tag: str, m: int = 2, max_total: int = 4):
    """(rng, n, ring, x, y) over every ring and ambient, three draws each."""
    rng = seeded(tag)
    for ring in RINGS:
        for n in AMBIENTS:
            for _ in range(3):
                x = random_element(rng, n, m, ring, max_total)
                y = random_element(rng, n, m, ring, max_total)
                yield rng, n, ring, x, y


def test_arithmetic_results_are_canonical():
    for rng, n, ring, x, y in elements("trusted-arith"):
        results = [x * y, x + y, x - y, x - x, x.scale(ring.zero),
                   x.scale(random_coeff(rng, ring)), -x,
                   x.multidegree_component(next(iter(x.multidegrees()))),
                   x.total_degree_cut(2)]
        targets = [INF] if n is INF else []
        targets += range(1, 5 if n is INF else n + 1)
        results += [x.truncate(t) for t in targets]
        for z in results:
            assert_canonical_msf(z)
        assert (x - x).is_zero and x.scale(ring.zero).is_zero


def test_rewrite_and_evaluate_results_are_canonical():
    for _, n, ring, x, _ in elements("trusted-rewrite"):
        mono_es = reduce_to_monomial_es(x)
        g = rewrite(x)
        for p in (mono_es, g, g * g, g + mono_es, g.scale(ring.zero)):
            assert_canonical_genpoly(p)
        back = evaluate(g, n)
        assert_canonical_msf(back)
        assert back == x  # round trip, also over Z/2 and Z/3 at finite n


def random_genpoly(rng, ring, max_i: int = 3, max_terms: int = 4):
    """Random polynomial in symbols E[i;nu], m = 2, nu not always primitive."""
    monos = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (2, 2)]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        syms = {}
        for _ in range(rng.randint(0, 2)):
            s = (rng.randint(1, max_i), rng.choice(monos))
            syms[s] = syms.get(s, 0) + rng.randint(1, 2)
        key = tuple(sorted(syms.items(), key=lambda t: (grlex_key(t[0][1]), t[0][0])))
        terms[key] = random_coeff(rng, ring)
    return GenPoly(2, ring, terms)


def test_one_dict_accumulation_matches_naive_reference():
    rng = seeded("trusted-naive")
    for ring in RINGS:
        for n in AMBIENTS:
            for _ in range(4):
                g = random_genpoly(rng, ring)
                got = primitive_reduce(g, n)
                assert got == naive_primitive_reduce(g, n)
                assert_canonical_genpoly(got)
                # evaluate at n truncates any E[i;nu] with i > n
                ev = evaluate(g, n)
                assert ev == ref_evaluate(g, n)
                assert_canonical_msf(ev)
                x = random_element(rng, n, 2, ring, 3)
                assert evaluate(rewrite(x), n) == ref_evaluate(rewrite(x), n)


def test_accumulation_cancels_to_zero():
    # terms that cancel in the sum leave no zero coefficient behind
    for ring in RINGS:
        g = GenPoly.symbol(1, (1, 0), 2, ring)
        minus = g - g * GenPoly.const(ring.one, 2, ring)
        assert minus.is_zero
        two_terms = GenPoly(2, ring, {(((1, (2, 0)), 1),): ring.one,
                                      (((1, (1, 0)), 2),): ring.one})
        diff = two_terms - two_terms
        for n in AMBIENTS:
            assert primitive_reduce(diff, n).is_zero
            assert evaluate(diff, n).is_zero
            # e_1(y1^2) = e_1(y1)^2 - 2 e_2(y1), so the sum is
            # 2 e_1(y1)^2 - 2 e_2(y1), which vanishes over Z/2
            p = primitive_reduce(two_terms, n)
            assert_canonical_genpoly(p)
            assert p == naive_primitive_reduce(two_terms, n)
            assert p.is_zero == (ring == Zmod(2))


A, B = (1, 0), (0, 1)


@pytest.mark.parametrize("alpha, n", [
    (((A, 1), (B, 1)), 3),        # index not in canonical (grlex) order
    (((A, 3),), 2),               # weight 3 cannot live in 2 slots
    ((((0, 0), 1),), 3),          # constant support monomial
    (((A, 0),), 3),               # multiplicity 0
    (((A, 1), (A, 1)), 3),        # repeated support monomial
    ((((1, 0, 0), 1),), 3),       # monomial in the wrong number of variables
])
def test_msf_constructor_rejects_bad_indices(alpha, n):
    with pytest.raises(ValueError):
        MsfElement(n, 2, ZZ, {alpha: ZZ.one})


@pytest.mark.parametrize("n", [0, -1, True, 2.0, "inf"])
def test_msf_constructor_and_truncate_reject_bad_ambients(n):
    with pytest.raises(ValueError):
        MsfElement(n, 2, ZZ)
    with pytest.raises(ValueError):
        MsfElement.one(INF, 2, ZZ).truncate(n)


@pytest.mark.parametrize("symmono", [
    (((0, A), 1),),               # symbol index i < 1
    (((1, (0, 0)), 1),),          # constant nu
    (((1, (1, 0, 0)), 1),),       # nu in the wrong number of variables
    (((1, (2, -1)), 1),),         # negative exponent in nu
    (((1, A), 0),),               # exponent 0
])
def test_genpoly_constructor_rejects_bad_symbols(symmono):
    with pytest.raises(ValueError):
        GenPoly(2, ZZ, {symmono: ZZ.one})
