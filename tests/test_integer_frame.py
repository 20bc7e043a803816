"""Inner loops on Python ints: Ring.lift and Ring.settle.

The product, rewrite, evaluate and the concrete expansion lift their
coefficients to integer numerators over one denominator, accumulate ints
and settle each sum into the ring once.  The references below add one
product of ring elements at a time with Ring.add and Ring.mul, as plain
Fraction arithmetic does over Q, and every result must agree with them,
including for large coprime denominators, sums that cancel to zero and the
Python type of every coefficient.
"""

from fractions import Fraction

import pytest

from conftest import alpha_pool, seeded
from multisym.coeffring import QQ, ZZ, Zmod
from multisym.msf import (_ALPHAS, INF, MsfElement, _alpha_product_z, _intern_alpha,
                          alpha_weight, e_alpha)
from multisym.polyring import NPoly
from multisym.relations import _expansion_z, genpoly_expand
from multisym.rewrite import (_SYMMONOS, GenPoly, _evaluate_image_z, _reduce_alpha,
                              evaluate, primitive_reduce, reduce_to_monomial_es, rewrite)

M61 = 2**61 - 1
M89 = 2**89 - 1
RINGS = [ZZ, QQ, Zmod(2), Zmod(3), Zmod(M61)]
Y1, Y2 = (1, 0), (0, 1)


def ref_combine(ring, pairs) -> dict:
    """sum of c * image over (c, image) pairs, one ring operation at a time."""
    out = {}
    for c, image in pairs:
        for key, k in image:
            out[key] = ring.add(out.get(key, ring.zero), ring.mul(c, ring.embed(k)))
    return {key: c for key, c in out.items() if not ring.is_zero(c)}


def ref_product(x: MsfElement, y: MsfElement) -> dict:
    # the kernel takes index ids and gives (id, int) pairs
    R = x.ring
    cap = None if x.n is INF else x.n
    pairs = []
    for ax, cx in x.terms.items():
        for ay, cy in y.terms.items():
            ck = cap
            if ck is not None and ck >= alpha_weight(ax) + alpha_weight(ay):
                ck = None
            image = _alpha_product_z(_intern_alpha(ax), _intern_alpha(ay), ck)
            pairs.append((R.mul(cx, cy), [(_ALPHAS[k], v) for k, v in image]))
    return ref_combine(R, pairs)


def ref_rewrite_cached(x: MsfElement) -> dict:
    # the cached images are keyed by interned index ids and the ambient,
    # and give symbol-monomial ids
    return ref_combine(x.ring, [(c, [(_SYMMONOS[k], v)
                                     for k, v in _reduce_alpha(_intern_alpha(a), x.n).items()])
                                for a, c in x.terms.items()])


def ref_evaluate_cached(g: GenPoly, n) -> dict:
    return ref_combine(g.ring, [(c, _evaluate_image_z(k, n, g.m).terms.items())
                                for k, c in g._d.items()])


def ref_expand_cached(g: GenPoly, n) -> dict:
    return ref_combine(g.ring, [(c, _expansion_z(s, n, g.m).terms.items())
                                for s, c in g.terms.items()])


def assert_types(ring, coeffs) -> None:
    for c in coeffs:
        if ring == QQ:
            assert type(c) is Fraction
        else:
            assert type(c) is int
            if ring.p is not None:
                assert 0 < c < ring.p


def random_coeff(rng, ring):
    if ring == QQ:
        den = rng.choice([1, 2, 3, 6, M61, M89, M61 * 3])
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**20), den)
    return ring.embed(rng.randint(-10**20, 10**20))


def random_element(rng, n, m, ring, terms=4):
    pool = alpha_pool(n, m, 3)
    return MsfElement(n, m, ring, {rng.choice(pool): random_coeff(rng, ring)
                                   for _ in range(terms)})


def test_lift_is_the_identity_outside_q():
    for ring in (ZZ, Zmod(7)):
        d = {"a": ring.embed(5), "b": ring.embed(-3)}
        ints, den = ring.lift(d)
        assert ints == d and den == 1
        assert ring.settle(ints, den) == d


def test_lift_uses_one_common_denominator_over_q():
    d = {"a": Fraction(1, M61), "b": Fraction(-1, M89), "c": Fraction(3, 2), "z": Fraction(4)}
    ints, den = QQ.lift(d)
    assert den == 2 * M61 * M89
    assert all(type(v) is int for v in ints.values())
    assert {k: Fraction(v, den) for k, v in ints.items()} == d
    assert QQ.settle(ints, den) == d
    assert QQ.lift({"a": Fraction(6, 3), "b": Fraction(-2)}) == ({"a": 2, "b": -2}, 1)
    assert QQ.lift({}) == ({}, 1)


def test_settle_drops_cancelled_sums_and_keeps_types():
    assert QQ.settle({"a": 0, "b": 6, "c": -4}, 6) == {"b": Fraction(1), "c": Fraction(-2, 3)}
    assert type(QQ.settle({"b": 6}, 6)["b"]) is Fraction
    assert Zmod(5).settle({"a": 10, "b": -1, "c": 7}, 1) == {"b": 4, "c": 2}
    assert ZZ.settle({"a": 0, "b": -3}, 1) == {"b": -3}
    # NPoly's own arithmetic settles Fraction sums with den = 1
    assert QQ.settle({"a": Fraction(3, 2), "b": Fraction(0)}, 1) == {"a": Fraction(3, 2)}


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("n", [INF, 2, 3])
def test_products_match_the_fraction_reference(ring, n):
    rng = seeded(f"frame:product:{ring.to_string()}:{n}")
    for _ in range(4):
        x = random_element(rng, n, 2, ring)
        y = random_element(rng, n, 2, ring)
        z = x * y
        assert z.terms == ref_product(x, y)
        assert_types(ring, z.terms.values())


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("n", [INF, 2, 3])
def test_rewrite_and_evaluate_match_the_fraction_reference(ring, n):
    rng = seeded(f"frame:rewrite:{ring.to_string()}:{n}")
    for _ in range(4):
        x = random_element(rng, n, 2, ring)
        g = rewrite(x)
        assert g.terms == ref_rewrite_cached(x)
        assert_types(ring, g.terms.values())
        assert_types(ring, reduce_to_monomial_es(x).terms.values())
        back = evaluate(g, n)
        assert back.terms == ref_evaluate_cached(g, n)
        assert_types(ring, back.terms.values())
        if n is INF:
            assert back == x


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_genpoly_expand_matches_the_fraction_reference(ring, n):
    rng = seeded(f"frame:expand:{ring.to_string()}:{n}")
    for _ in range(3):
        g = rewrite(random_element(rng, INF, 2, ring, terms=3))
        p = genpoly_expand(g, n)
        assert dict(p.terms.items()) == ref_expand_cached(g, n)
        assert_types(ring, p.terms.values())


def test_large_coprime_denominators_in_every_site():
    a = e_alpha([(Y1, 1)], INF, 2, QQ).scale(Fraction(1, M61))
    b = e_alpha([(Y2, 2)], INF, 2, QQ).scale(Fraction(-1, M89))
    x = a + b
    z = x * x
    assert z.terms == ref_product(x, x)
    assert z.terms[((Y1, 2),)] == Fraction(2, M61 * M61)
    g = rewrite(z)
    assert g.terms == ref_rewrite_cached(z)
    assert evaluate(g, INF) == z
    assert dict(genpoly_expand(g, 3).terms.items()) == ref_expand_cached(g, 3)
    assert genpoly_expand(g, 3) == z.truncate(3).expand()
    # NPoly products lift too
    p, q = a.truncate(2).expand(), b.truncate(2).expand()
    assert p * q == (a * b).truncate(2).expand()


def test_sums_that_cancel_are_dropped():
    a = e_alpha([(Y1, 1)], INF, 2, QQ).scale(Fraction(1, M61))
    b = e_alpha([(Y2, 1)], INF, 2, QQ).scale(Fraction(2, M89))
    # (a - b)(a + b) = a^2 - b^2: the cross terms e(y1, y2) and e(y1*y2) cancel
    z = (a - b) * (a + b)
    assert z == a * a - b * b
    assert ((Y1, 1), (Y2, 1)) not in z.terms and (((1, 1), 1),) not in z.terms
    assert not any(c == 0 for c in z.terms.values())
    assert z.terms == ref_product(a - b, a + b)
    # exact cancellation to the zero element, in every site
    w = a * b - b * a
    assert w.is_zero and w.terms == {}
    g = rewrite(a * b)
    assert primitive_reduce(g - g, INF).is_zero
    assert evaluate(g - g, INF).is_zero
    assert genpoly_expand(g - g, 2).is_zero
    # over Z/2 the multinomial factor 2 of e(y1)^2 vanishes
    e1 = e_alpha([(Y1, 1)], INF, 2, Zmod(2))
    assert (e1 * e1).terms == {(((2, 0), 1),): 1}


def test_integer_valued_q_results_stay_fractions():
    x = e_alpha([(Y1, 1)], INF, 2, QQ).scale(Fraction(3, 2))
    y = e_alpha([(Y1, 1)], INF, 2, QQ).scale(Fraction(2, 3))
    z = x * y
    assert z.terms == {((Y1, 2),): Fraction(2), (((2, 0), 1),): Fraction(1)}
    assert_types(QQ, z.terms.values())
    assert_types(QQ, rewrite(z).terms.values())
    assert_types(QQ, evaluate(rewrite(z), INF).terms.values())
    assert_types(QQ, genpoly_expand(rewrite(z), 2).terms.values())
    assert_types(QQ, (z.truncate(2).expand() * z.truncate(2).expand()).terms.values())
    assert_types(ZZ, (NPoly.one(1, 1, ZZ) * NPoly.one(1, 1, ZZ)).terms.values())
