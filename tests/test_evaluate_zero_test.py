"""Route 1 of the vanishing check: evaluate(g, n).is_zero.

verify_relation asks first whether evaluate(g, n) is zero, then whether
genpoly_expand(g, n) is.  Every verdict of route 1 must agree with
verify_relation's, over every ring, on relations, on one-unit changes to
them, and on coefficients large enough to widen route 2's packed fields.
A bad ambient is refused before anything is computed or cached.
"""

from fractions import Fraction

import pytest

import multisym
from conftest import run_main
from multisym import relations
from multisym.coeffring import QQ, ZZ, Zmod
from multisym.msf import INF, MsfElement
from multisym.polyring import NPoly
from multisym.reference import relation_items
from multisym.relations import FIELD_BITS, _expansion_z, genpoly_expand, verify_relation
from multisym.rewrite import GenPoly, _primitive_symbol_z, evaluate, primitive_reduce

M31 = 2**31 - 1  # prime
RINGS = [ZZ, QQ, Zmod(2), Zmod(7), Zmod(1000003)]
SHAPES = [(1, 2, (2, 2)), (2, 2, (3, 3)), (3, 2, (3, 2)), (2, 3, (2, 1, 1)), (2, 1, (6,))]


def sym(i, nu, e=1):
    return ((i, tuple(nu)), e)


def genpoly(ring, m, terms) -> GenPoly:
    """terms: (coefficient, [symbol factors in canonical order])."""
    return GenPoly(m, ring, {tuple(f): c if isinstance(c, Fraction) else ring.embed(c)
                             for c, f in terms})


def agrees(g, n) -> bool:
    """Route 1's verdict, checked against verify_relation's."""
    got = evaluate(g, n).is_zero
    assert verify_relation(g, n) is got
    return got


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.to_string())
@pytest.mark.parametrize("n, m, max_a", SHAPES, ids=lambda s: str(s))
def test_every_relation_and_every_one_unit_change(ring, n, m, max_a):
    items = relation_items(n, m, max_a, ring)
    assert items
    flipped = 0
    for k, (_, _, g) in enumerate(items):
        assert agrees(g, n)
        symmono = list(g.terms)[k % len(g.terms)]
        bumped = g + GenPoly(m, ring, {symmono: ring.one})
        flipped += not agrees(bumped, n)
    # in one variable every term of a relation holds some e_i with i > n,
    # so a bump there has a zero image
    assert flipped or m == 1


@pytest.mark.parametrize("ring", [ZZ, QQ])
@pytest.mark.parametrize("sign", [1, -1])
def test_ladder_edge(ring, sign):
    # in two slots E[1;(1,0)]^2 = e((2,0):1) + 2 e((1,0):2), and E[2;(1,0)]
    # and E[1;(2,0)] are those orbit sums: k * (E1^2 - E[1;(2,0)] - 2 E2)
    # vanishes, and route 2 packs it with bound 5|k|, past its first field
    # width from the second k on; a unit more on -2k E2 breaks it
    top = 2 ** (FIELD_BITS - 1)
    for k in ((top - 1) // 5, (top - 1) // 5 + 1):
        c = sign * k
        zero = genpoly(ring, 2, [(c, [sym(1, (1, 0), 2)]), (-c, [sym(1, (2, 0))]),
                                 (-2 * c, [sym(2, (1, 0))])])
        for extra, vanishes in ((0, True), (-sign, False)):
            g = zero + genpoly(ring, 2, [(extra, [sym(2, (1, 0))])])
            assert agrees(g, 2) is vanishes


def test_ladder_edge_mod_p():
    ring = Zmod(M31)  # lifts up to 2^31 - 2
    assert agrees(genpoly(ring, 2, [(M31 - 1, [sym(1, (2, 0))])]), 2) is False
    g = genpoly(ring, 2, [(M31 - 1, [sym(1, (1, 0), 2)]), (1, [sym(1, (2, 0))]),
                          (2, [sym(2, (1, 0))])])
    assert agrees(g, 2) is True


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.to_string())
def test_inhomogeneous_input_is_tested_per_multidegree(ring):
    multisym.clear_caches()
    # E[1;(1,0)] and E[1;(0,1)] have images of different multidegrees,
    # which must not cancel
    split = genpoly(ring, 2, [(1, [sym(1, (1, 0))]), (-1, [sym(1, (0, 1))])])
    assert agrees(split, 2) is False
    # two identities of different multidegrees, plus a constant or a bump
    zero = genpoly(ring, 2, [(1, [sym(1, (1, 0), 2)]), (-1, [sym(1, (2, 0))]),
                             (-2, [sym(2, (1, 0))]), (3, [sym(1, (0, 1), 2)]),
                             (-3, [sym(1, (0, 2))]), (-6, [sym(2, (0, 1))])])
    for n in (1, 2, 3):
        assert agrees(zero, n) is True
        assert agrees(zero + genpoly(ring, 2, [(5, [])]), n) is False
        assert agrees(zero + genpoly(ring, 2, [(1, [sym(1, (0, 2))])]), n) is False
    # a symbol above the ambient has a zero image
    assert agrees(genpoly(ring, 2, [(1, [sym(3, (1, 0))])]), 2) is True


def test_image_packed_before_the_index_grew():
    # route 2 packs each image at positions of an index that grows as new
    # monomials appear; verdicts must not depend on that order
    multisym.clear_caches()
    n, m = 2, 2
    e2 = [sym(2, (1, 0))]    # e((1,0):2)
    p2 = [sym(1, (2, 0))]    # e((2,0):1)
    sq = [sym(1, (1, 0), 2)]  # both
    assert agrees(genpoly(ZZ, m, [(1, e2)]), n) is False
    assert agrees(genpoly(ZZ, m, [(1, p2)]), n) is False
    for ring in RINGS:
        g = genpoly(ring, m, [(1, e2), (1, p2), (-1, sq)])  # -e((1,0):2)
        assert agrees(g, n) is False
        assert agrees(g + genpoly(ring, m, [(1, e2)]), n) is True


def test_total_divisible_by_p_with_a_field_that_is_not():
    # over Z/3, e((1,0):2) + 2 e((2,0):1) packed in 32-bit fields is
    # 1 + 2 * 2^32, a multiple of 3, though neither coefficient is
    ring = Zmod(3)
    g = genpoly(ring, 2, [(1, [sym(2, (1, 0))]), (2, [sym(1, (2, 0))])])
    assert dict(evaluate(g, 2).terms) == {(((1, 0), 2),): 1, (((2, 0), 1),): 2}
    assert agrees(g, 2) is False


def test_bad_ambient_is_refused():
    # every route refuses before it computes, so no image is cached under it
    g = genpoly(ZZ, 2, [(1, [sym(1, (1, 0))])])
    before = _expansion_z.cache_info().currsize
    symbols_before = _primitive_symbol_z.cache_info().currsize
    for n in (0, -1, True, 2.0, "2", None):
        for check in (genpoly_expand, evaluate, verify_relation, primitive_reduce):
            with pytest.raises(ValueError):
                check(g, n)
    # evaluate takes the infinite ambient; verify_relation refuses it for a
    # nonzero and a zero polynomial alike
    for h in (g, g - g):
        with pytest.raises(ValueError):
            verify_relation(h, INF)
    assert _expansion_z.cache_info().currsize == before
    assert _primitive_symbol_z.cache_info().currsize == symbols_before


@pytest.mark.parametrize("route", ["evaluate", "genpoly_expand"])
def test_relations_exits_5_when_either_route_fails(monkeypatch, route):
    argv = ["relations", "--n", "2", "--m", "2", "--max-degree", "2,2"]
    code, out, _ = run_main(argv)
    assert code == 0 and '"verified":true' in out
    cls = MsfElement if route == "evaluate" else NPoly
    monkeypatch.setattr(relations, route, lambda g, n: cls.one(n, g.m, g.ring))
    code, out, _ = run_main(argv)
    assert code == 5
    assert '"verified":false' in out


@pytest.mark.parametrize("p", [2, 7])
def test_unreduced_coefficients_mod_p(p):
    # the constructor reduces -1 and p + 1 to their residues
    ring = Zmod(p)
    for c, vanishes in ((-1, False), (p, True), (p + 1, False), (-p, True)):
        assert agrees(GenPoly(2, ring, {(sym(1, (1, 0)),): c}), 2) is vanishes
    identity = {(sym(1, (1, 0), 2),): 1 - p, (sym(1, (2, 0)),): p - 1, (sym(2, (1, 0)),): 2 * p - 2}
    assert agrees(GenPoly(2, ring, identity), 2) is True


def test_wide_fields_mod_p_are_read_back():
    # lifts near 2^64: route 2 needs 128-bit fields
    p = 2**64 - 59  # prime
    ring = Zmod(p)
    c = p - 1
    zero = genpoly(ring, 2, [(c, [sym(1, (1, 0), 2)]), (-c, [sym(1, (2, 0))]),
                             (-2 * c, [sym(2, (1, 0))])])
    assert agrees(zero, 2) is True
    assert agrees(zero + genpoly(ring, 2, [(1, [sym(2, (1, 0))])]), 2) is False
