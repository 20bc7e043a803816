"""The concrete expansion on Kronecker-packed images (relations.genpoly_expand).

Each cached integer image is one int with a field per coordinate of its
multidegree, and the sum of coefficient times image is big-int arithmetic.
Every result must equal the dict reference of test_integer_frame, which
adds one ring product at a time; the field width must follow its bound
exactly; and a one-unit change to a relation must flip its verdict.
"""

from fractions import Fraction
from math import comb

import pytest

import multisym
from conftest import seeded
from multisym import relations
from multisym.coeffring import QQ, ZZ, Zmod
from multisym.reference import relation_items
from multisym.relations import (FIELD_BITS, _coords, _expansion_z, _fields_divisible,
                                genpoly_expand, verify_relation)
from multisym.rewrite import (ZERO_TEST_BITS, GenPoly, _packed_evaluation, evaluate,
                              evaluates_to_zero)
from test_integer_frame import ref_expand

M31 = 2**31 - 1  # prime
RINGS = [ZZ, QQ, Zmod(2), Zmod(7), Zmod(M31)]


def sym(i, nu, e=1):
    return ((i, tuple(nu)), e)


def genpoly(ring, m, terms) -> GenPoly:
    """terms: (coefficient, [symbol factors in canonical order])."""
    return GenPoly(m, ring, {tuple(f): ring.embed(c) if not isinstance(c, Fraction) else c
                             for c, f in terms})


def expands_as_reference(g, n) -> dict:
    got = dict(genpoly_expand(g, n).terms.items())
    assert got == ref_expand(g, n)
    return got


@pytest.fixture
def widths(monkeypatch):
    """The field widths genpoly_expand asks packed images at."""
    seen = []
    packed = relations._packed_image

    def spy(symmono, n, m, w):
        seen.append(w)
        return packed(symmono, n, m, w)

    monkeypatch.setattr(relations, "_packed_image", spy)
    return seen


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.to_string())
@pytest.mark.parametrize("n", [1, 2, 3])
def test_inhomogeneous_with_constant_matches_reference(ring, n):
    c = Fraction(-7, 3) if ring == QQ else 5
    g = genpoly(ring, 2, [
        (c, []),
        (3, [sym(1, (1, 0))]),
        (-2, [sym(1, (0, 1)), sym(1, (1, 0), 2)]),
        (1, [sym(2, (1, 1))]),
        (4, [sym(3, (1, 0)), sym(1, (1, 1))]),  # zero for n < 3
    ])
    got = expands_as_reference(g, n)
    assert got  # the constant term survives in every ring
    assert len({sum(mono) for mono in got}) > 1


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(2), Zmod(7)], ids=lambda r: r.to_string())
def test_one_unit_change_flips_the_verdict(ring):
    units = [1, -1] if ring.p is None else range(1, ring.p)
    items = relation_items(2, 2, (3, 3), ring)
    assert items
    for _, _, g in items:
        assert verify_relation(g, 2)
        for symmono in g.terms:
            for u in units:
                bump = GenPoly(2, ring, {symmono: ring.embed(u)})
                # a bump with a zero image keeps the relation, any other breaks it
                moves = bool(ref_expand(bump, 2))
                assert bool(expands_as_reference(g + bump, 2)) is moves
                assert verify_relation(g + bump, 2) is not moves


def test_identity_vanishes_with_large_lifts():
    # e_1(y1)^2 = p_2(y1) + 2 e_2(y1) in any ambient; over Z/M31 the lifted
    # coefficients M31 - 1 and M31 - 2 leave a nonzero integer sum
    for ring in RINGS:
        for k in (1, M31 - 1):
            g = genpoly(ring, 2, [(k, [sym(1, (1, 0), 2)]), (-k, [sym(1, (2, 0))]),
                                  (-2 * k, [sym(2, (1, 0))])])
            for n in (1, 2, 3):
                assert genpoly_expand(g, n).is_zero
                assert verify_relation(g, n)


@pytest.mark.parametrize("p", [2, 7])
def test_unreduced_coefficients_mod_p(p):
    # coefficients given to the public constructor negative or at least p
    # must each count as their residue
    ring = Zmod(p)
    g = GenPoly(2, ring, {(sym(1, (1, 0)),): -1})
    assert expands_as_reference(g, 2) == {(1, 0, 0, 0): p - 1, (0, 0, 1, 0): p - 1}
    assert genpoly_expand(GenPoly(2, ring, {(sym(1, (1, 0)),): p}), 2).is_zero
    bumped = 0
    for k, (_, _, rel) in enumerate(relation_items(2, 2, (3, 3), ring)):
        # mixed signs: every coefficient moved by -p, 0 or +p
        terms = {s: c + p * (j % 3 - 1) for j, (s, c) in enumerate(rel.terms.items())}
        shifted = GenPoly(2, ring, terms)
        assert min(terms.values()) < 0 < max(terms.values()) or len(terms) < 3
        assert not expands_as_reference(shifted, 2)
        assert verify_relation(shifted, 2)
        # a unit change, either way, on a symbol monomial of nonzero image
        s = next((s for s in terms if ref_expand(GenPoly(2, ring, {s: 1}), 2)), None)
        if s is not None:
            terms[s] += 1 if k % 2 else 1 - 2 * p
            assert expands_as_reference(GenPoly(2, ring, terms), 2)
            assert not verify_relation(GenPoly(2, ring, terms), 2)
            bumped += 1
    assert bumped > 10


@pytest.mark.parametrize("ring", [ZZ, QQ])
@pytest.mark.parametrize("sign", [1, -1])
def test_ladder_edge(ring, sign, widths):
    # in two slots E[1;(1,0)]^2 = x1(1)^2 + 2*x1(1)*x1(2) + x1(2)^2 and
    # E[2;(1,0)] = x1(1)*x1(2): the bound is met in the x1(1)*x1(2) field
    top = 2 ** (FIELD_BITS - 1)
    for bound, wider in ((top - 1, False), (top, True)):
        a = (bound - 1) // 2
        g = genpoly(ring, 2, [(sign * a, [sym(1, (1, 0), 2)]),
                              (sign * (bound - 2 * a), [sym(2, (1, 0))])])
        widths.clear()
        got = expands_as_reference(g, 2)
        assert got[(1, 0, 1, 0)] == sign * bound
        assert widths.count(2 * FIELD_BITS) == (2 if wider else 0)


def test_ladder_edge_mod_p(widths):
    ring = Zmod(M31)  # lifts up to 2^31 - 2
    g = genpoly(ring, 2, [(M31 - 1, [sym(1, (2, 0))])])
    widths.clear()
    expands_as_reference(g, 2)
    assert widths == [FIELD_BITS]
    g = genpoly(ring, 2, [(M31 - 1, [sym(1, (1, 0), 2)])])
    widths.clear()
    expands_as_reference(g, 2)
    assert widths == [FIELD_BITS, 2 * FIELD_BITS]


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(M31)], ids=lambda r: r.to_string())
def test_huge_coefficient(ring, widths):
    big = 2**200
    g = genpoly(ring, 2, [(big, [sym(1, (1, 0), 2)]), (-1, [sym(2, (1, 0))]),
                          (3, [])])
    expands_as_reference(g, 2)
    expands_as_reference(g - g, 2)
    if ring.p is None:
        assert max(widths) == 256
    h = genpoly(ring, 2, [(big, [sym(1, (1, 0), 2)]), (-big, [sym(1, (2, 0))]),
                          (-2 * big, [sym(2, (1, 0))])])
    assert genpoly_expand(h, 3).is_zero


def test_image_packed_before_the_index_grew():
    multisym.clear_caches()
    n, m, a = 2, 2, (2, 0)
    first = genpoly(ZZ, m, [(1, [sym(2, (1, 0))])])  # x1(1)x1(2)
    expands_as_reference(first, n)
    assert len(_coords(n, m, a)) == 1
    second = genpoly(ZZ, m, [(1, [sym(1, (2, 0))])])  # x1(1)^2 + x1(2)^2
    expands_as_reference(second, n)
    assert len(_coords(n, m, a)) == 3
    for ring in RINGS:
        g = genpoly(ring, m, [(1, [sym(2, (1, 0))]), (1, [sym(1, (2, 0))]),
                              (-1, [sym(1, (1, 0), 2)])])
        assert expands_as_reference(g, n) == {(1, 0, 1, 0): ring.embed(-1)}
        assert genpoly_expand(g + GenPoly(m, ring, {(sym(2, (1, 0)),): ring.one}), n).is_zero
    assert len(_coords(n, m, a)) == 3


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.to_string())
def test_sixteen_bit_key_fields(ring):
    # exponents of 128 need 16-bit key fields; E[2;(64)] = x(1)^64 x(2)^64
    # alone fits 8-bit fields and is repacked into its multidegree's index
    g = genpoly(ring, 1, [(1, [sym(1, (64,), 2)]), (-1, [sym(1, (128,))]),
                          (-2, [sym(2, (64,))])])
    assert genpoly_expand(g, 2).is_zero
    assert genpoly_expand(g, 3).is_zero
    h = g + genpoly(ring, 1, [(3, [sym(2, (64,))]), (1, [sym(1, (130,))])])
    got = expands_as_reference(h, 2)
    assert got[(64, 64)] == ring.embed(3) and got[(130, 0)] == ring.one
    assert _expansion_z((sym(2, (64,)),), 2, 1)._w == 8
    assert _expansion_z((sym(1, (128,)),), 2, 1)._w == 16


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, M31, 2**61 - 1])
def test_divisibility_of_every_field_is_read_exactly(p):
    rng = seeded(f"fields:{p}")
    assert not _fields_divisible(2 + (1 << 32), 3, 2, 32)  # 3 | total, not its fields
    for w in (32, 64, 128):
        top = 2 ** (w - 1)
        for k in range(200):
            size = rng.randint(1, 5)
            if k % 2:  # every field a multiple of p
                fields = [p * rng.randrange((top - 1) // p + 1) for _ in range(size)]
            else:  # p divides the total, mostly not every field
                fields = [rng.randrange(top) for _ in range(size)]
                r = sum(f << (w * i) for i, f in enumerate(fields)) % p
                fields[0] += -r if fields[0] >= r else p - r
            for fs in (fields, [fields[0] + 1] + fields[1:]):  # and off by one
                total = sum(f << (w * i) for i, f in enumerate(fs))
                assert _fields_divisible(total, p, size, w) is all(f % p == 0 for f in fs)


def test_images_too_wide_for_32_bit_fields():
    # at n = 2, E[1;(1,0)]^34 is (x1(1) + x1(2))^34, whose largest
    # coefficient C(34,17) = 2,333,606,220 reaches 2^31: neither packer can
    # hold it in a 32-bit field, and both must widen
    n, m = 2, 2
    wide = GenPoly(m, ZZ, {(sym(1, (1, 0), 34),): 1})
    rels = relation_items(n, m, (2, 1), ZZ)
    assert rels
    for _, _, rel in rels:
        g = rel * wide
        for s in g.terms:
            route2 = relations._packed_image(s, n, m, FIELD_BITS)
            route1 = _packed_evaluation(s, n, m, ZERO_TEST_BITS)
            assert route2[0] is None and route2[1] >= comb(34, 17)
            assert route1[0] is None and route1[1] >= comb(34, 17)
        assert evaluates_to_zero(g, n) and evaluate(g, n).is_zero
        assert not expands_as_reference(g, n)
        s = next(iter(g.terms))
        bumped = g + GenPoly(m, ZZ, {s: 1})
        assert not evaluates_to_zero(bumped, n) and not evaluate(bumped, n).is_zero
        assert expands_as_reference(bumped, n)
