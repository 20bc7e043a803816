"""Route 1's zero test (rewrite.evaluates_to_zero) on Kronecker-packed images.

verify_relation asks only whether evaluate(g, n) is zero, and answers it
on packed orbit-sum images without building the evaluation.  Every
verdict must equal evaluate's own, the field width must follow its bound,
and over Z/p a total that p divides must still be read field by field.
"""

import importlib
from fractions import Fraction

import pytest

import multisym
from conftest import run_main
from multisym import relations
from multisym.coeffring import QQ, ZZ, Zmod
from multisym.msf import MsfElement
from multisym.polyring import NPoly
from multisym.reference import relation_items
from multisym.relations import verify_relation
from multisym.rewrite import (ZERO_TEST_BITS, GenPoly, _orbit_coords, _packed_evaluation,
                              evaluate, evaluates_to_zero)

rewrite_mod = importlib.import_module("multisym.rewrite")

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
    """Route 1's verdict, checked against evaluate."""
    got = evaluates_to_zero(g, n)
    assert got is evaluate(g, n).is_zero
    return got


@pytest.fixture
def widths(monkeypatch):
    """The field widths the zero test asks packed images at."""
    seen = []
    packed = rewrite_mod._packed_evaluation

    def spy(symmono, n, m, w):
        seen.append(w)
        return packed(symmono, n, m, w)

    monkeypatch.setattr(rewrite_mod, "_packed_evaluation", spy)
    return seen


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
        # route 1 alone: a pass by full expansion cannot hide a fault here
        flipped += not agrees(bumped, n)
    # in one variable every term of a relation holds some e_i with i > n,
    # so a bump there has a zero image
    assert flipped or m == 1


@pytest.mark.parametrize("ring", [ZZ, QQ])
@pytest.mark.parametrize("sign", [1, -1])
def test_ladder_edge(ring, sign, widths):
    # in two slots E[1;(1,0)]^2 = e((2,0):1) + 2 e((1,0):2), and E[2;(1,0)]
    # and E[1;(2,0)] are those orbit sums: k * (E1^2 - E[1;(2,0)] - 2 E2)
    # vanishes with bound 5|k|, and a unit more on -2k E2 leaves one field
    top = 2 ** (ZERO_TEST_BITS - 1)
    for k, wider in (((top - 1) // 5, False), ((top - 1) // 5 + 1, True)):
        assert (5 * k >= top) is wider
        c = sign * k
        zero = genpoly(ring, 2, [(c, [sym(1, (1, 0), 2)]), (-c, [sym(1, (2, 0))]),
                                 (-2 * c, [sym(2, (1, 0))])])
        for extra, vanishes in ((0, True), (-sign, False)):
            g = zero + genpoly(ring, 2, [(extra, [sym(2, (1, 0))])])
            widths.clear()
            assert agrees(g, 2) is vanishes
            # the test always starts at the first rung, and climbs past it
            # only when the bound reaches the top bit
            assert widths.count(2 * ZERO_TEST_BITS) == (3 if wider else 0)


def test_ladder_edge_mod_p(widths):
    ring = Zmod(M31)  # lifts up to 2^31 - 2
    g = genpoly(ring, 2, [(M31 - 1, [sym(1, (2, 0))])])
    widths.clear()
    assert agrees(g, 2) is False
    assert widths == [ZERO_TEST_BITS]
    # top 2: the bound 2^32 - 4 needs the second rung
    g = genpoly(ring, 2, [(M31 - 1, [sym(1, (1, 0), 2)]), (1, [sym(1, (2, 0))]),
                          (2, [sym(2, (1, 0))])])
    widths.clear()
    assert agrees(g, 2) is True
    assert widths.count(2 * ZERO_TEST_BITS) == 3


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.to_string())
def test_inhomogeneous_input_is_tested_per_multidegree(ring):
    multisym.clear_caches()
    # E[1;(1,0)] and E[1;(0,1)] each take position 0 of their own index, so
    # their packed images are equal ints: one sum over both would cancel
    split = genpoly(ring, 2, [(1, [sym(1, (1, 0))]), (-1, [sym(1, (0, 1))])])
    assert _packed_evaluation((sym(1, (1, 0)),), 2, 2, ZERO_TEST_BITS)[0] == \
        _packed_evaluation((sym(1, (0, 1)),), 2, 2, ZERO_TEST_BITS)[0]
    assert agrees(split, 2) is False
    # two identities of different multidegrees, plus a constant or a bump
    zero = genpoly(ring, 2, [(1, [sym(1, (1, 0), 2)]), (-1, [sym(1, (2, 0))]),
                             (-2, [sym(2, (1, 0))]), (3, [sym(1, (0, 1), 2)]),
                             (-3, [sym(1, (0, 2))]), (-6, [sym(2, (0, 1))])])
    for n in (1, 2, 3):
        assert agrees(zero, n) is True
        assert agrees(zero + genpoly(ring, 2, [(5, [])]), n) is False
        assert agrees(zero + genpoly(ring, 2, [(1, [sym(1, (0, 2))])]), n) is False
    # a symbol above the ambient has a zero image and no group
    assert agrees(genpoly(ring, 2, [(1, [sym(3, (1, 0))])]), 2) is True


def test_image_packed_before_the_index_grew():
    multisym.clear_caches()
    n, m, a = 2, 2, (2, 0)
    e2 = [sym(2, (1, 0))]    # e((1,0):2)
    p2 = [sym(1, (2, 0))]    # e((2,0):1)
    sq = [sym(1, (1, 0), 2)]  # both
    assert agrees(genpoly(ZZ, m, [(1, e2)]), n) is False
    assert len(_orbit_coords(n, m, a)) == 1
    assert agrees(genpoly(ZZ, m, [(1, p2)]), n) is False
    assert len(_orbit_coords(n, m, a)) == 2
    for ring in RINGS:
        g = genpoly(ring, m, [(1, e2), (1, p2), (-1, sq)])  # -e((1,0):2)
        assert agrees(g, n) is False
        assert agrees(g + genpoly(ring, m, [(1, e2)]), n) is True
    assert len(_orbit_coords(n, m, a)) == 2


def test_total_divisible_by_p_with_a_field_that_is_not():
    # over Z/3 the fields 1 and 2 of e((1,0):2) + 2 e((2,0):1) are not
    # multiples of 3, but 1 + 2 * 2^32 and 2 + 2^32 both are
    ring = Zmod(3)
    g = genpoly(ring, 2, [(1, [sym(2, (1, 0))]), (2, [sym(1, (2, 0))])])
    total = sum(c * _packed_evaluation(s, 2, 2, ZERO_TEST_BITS)[0] for s, c in g.terms.items())
    assert total and total % 3 == 0
    assert agrees(g, 2) is False
    assert verify_relation(g, 2) is False


def test_negative_image_coefficient_is_refused(monkeypatch):
    # orbit-sum structure constants are nonnegative; the packer checks it
    multisym.clear_caches()
    s = (sym(1, (1, 0)),)
    bad = MsfElement._make(2, 2, ZZ, {(((1, 0), 1),): -1})
    monkeypatch.setattr(rewrite_mod, "_evaluate_image_z", lambda symmono, n, m: bad)
    with pytest.raises(AssertionError, match="nonnegative"):
        _packed_evaluation(s, 2, 2, ZERO_TEST_BITS)
    multisym.clear_caches()


def test_bad_ambient_is_refused():
    g = genpoly(ZZ, 2, [(1, [sym(1, (1, 0))])])
    for n in (0, -1, True, 2.0):
        with pytest.raises((ValueError, TypeError)):
            evaluates_to_zero(g, n)


@pytest.mark.parametrize("route", ["evaluates_to_zero", "genpoly_expand"])
def test_relations_exits_5_when_either_route_fails(monkeypatch, route):
    argv = ["relations", "--n", "2", "--m", "2", "--max-degree", "2,2"]
    code, out, _ = run_main(argv)
    assert code == 0 and '"verified":true' in out
    if route == "evaluates_to_zero":
        monkeypatch.setattr(relations, route, lambda g, n: False)
    else:
        monkeypatch.setattr(relations, route, lambda g, n: NPoly.one(n, g.m, g.ring))
    code, out, _ = run_main(argv)
    assert code == 5
    assert '"verified":false' in out


@pytest.mark.parametrize("p", [2, 7])
def test_unreduced_coefficients_mod_p(p):
    # the constructor reduces -1 and p + 1 to their residues, which the
    # packed sum needs
    ring = Zmod(p)
    for c, vanishes in ((-1, False), (p, True), (p + 1, False), (-p, True)):
        assert agrees(GenPoly(2, ring, {(sym(1, (1, 0)),): c}), 2) is vanishes
    identity = {(sym(1, (1, 0), 2),): 1 - p, (sym(1, (2, 0)),): p - 1, (sym(2, (1, 0)),): 2 * p - 2}
    assert agrees(GenPoly(2, ring, identity), 2) is True


def test_wide_fields_mod_p_are_read_back(widths):
    # lifts near 2^64 need 128-bit fields, read back without a native format
    p = 2**64 - 59  # prime
    ring = Zmod(p)
    c = p - 1
    zero = genpoly(ring, 2, [(c, [sym(1, (1, 0), 2)]), (-c, [sym(1, (2, 0))]),
                             (-2 * c, [sym(2, (1, 0))])])
    widths.clear()
    assert agrees(zero, 2) is True
    assert 4 * ZERO_TEST_BITS in widths
    assert agrees(zero + genpoly(ring, 2, [(1, [sym(2, (1, 0))])]), 2) is False
