"""Rewriting orbit-sum elements as polynomials in the e_i(nu) generators."""

import pytest

from conftest import degrees_upto, random_element, seeded
from multisym.coeffring import QQ, ZZ, Zmod
from multisym.msf import INF, MsfElement, alphas_of_multidegree, e_alpha
from multisym.reference import expand, free_monomial_count, genpoly_from_json, product
from multisym.rewrite import (GenPoly, _symbol_key, _symmono_mul, evaluate,
                              genpoly_to_json, plethysm_P, primitive_reduce,
                              reduce_to_monomial_es, rewrite)

F2 = Zmod(2)
A, B = (1, 0), (0, 1)


def sym(i, nu, m=2, ring=ZZ):
    return GenPoly.symbol(i, nu, m, ring)


def test_genpoly_arithmetic_and_text():
    g = sym(2, A) * sym(1, B) - sym(1, A) * sym(1, (1, 1)) + sym(1, (2, 1))
    assert g.text() == ("E[1;(0,1)]*E[2;(1,0)] - E[1;(1,0)]*E[1;(1,1)]"
                        " + E[1;(2,1)]")
    assert g.multidegrees() == {(2, 1)}
    assert (g - g).is_zero
    assert g * GenPoly.one(2, ZZ) == g
    assert GenPoly.zero(2, ZZ).text() == "0"
    two = GenPoly.const(ZZ.embed(2), 2, ZZ)
    assert (two ** 3).text() == "8"
    assert sym(1, A).is_primitive_alphabet()
    assert not sym(1, (2, 0)).is_primitive_alphabet()


def test_genpoly_validation():
    with pytest.raises(ValueError):
        GenPoly.symbol(0, A, 2, ZZ)
    with pytest.raises(ValueError):
        GenPoly.symbol(1, (0, 0), 2, ZZ)
    with pytest.raises(ValueError):
        GenPoly.symbol(1, (1, 0, 0), 2, ZZ)


def test_reduce_single_index_is_a_symbol():
    x = e_alpha([(A, 3)], INF, 2, ZZ)
    assert reduce_to_monomial_es(x) == sym(3, A)
    one = MsfElement.one(INF, 2, ZZ)
    assert reduce_to_monomial_es(one) == GenPoly.one(2, ZZ)


def test_reduce_golden_two_argument_index():
    # e_{(2,1)}(a,b) = e_2(a) e_1(b) - e_1(a) e_1(ab) + e_1(a^2 b)
    x = e_alpha([(A, 2), (B, 1)], INF, 2, ZZ)
    want = sym(2, A) * sym(1, B) - sym(1, A) * sym(1, (1, 1)) + sym(1, (2, 1))
    assert reduce_to_monomial_es(x) == want
    # the same identity holds after rewriting (every monomial is primitive)
    assert rewrite(e_alpha([(A, 2), (B, 1)], 3, 2, ZZ)) == want


def test_reduce_two_slot_pair():
    # e_{(1,1)}(a,b) = e_1(a) e_1(b) - e_1(ab)
    x = e_alpha([(A, 1), (B, 1)], INF, 2, ZZ)
    want = sym(1, A) * sym(1, B) - sym(1, (1, 1))
    assert reduce_to_monomial_es(x) == want


def test_primitive_reduce_power_monomials():
    y = (1,)
    y2 = (2,)
    # e_1(y^2) = e_1(y)^2 - 2 e_2(y) in the inverse limit
    g = rewrite(e_alpha([(y2, 1)], INF, 1, ZZ))
    want = sym(1, y, 1) * sym(1, y, 1) - sym(2, y, 1).scale(ZZ.embed(2))
    assert g == want
    # with a single slot the second generator dies
    g1 = rewrite(e_alpha([(y2, 1)], 1, 1, ZZ))
    assert g1 == sym(1, y, 1) * sym(1, y, 1)
    # e_2(y^2) at two slots: only e_2(y)^2 survives from P_{2,2}
    g2 = rewrite(e_alpha([(y2, 2)], 2, 1, ZZ))
    assert g2 == sym(2, y, 1) * sym(2, y, 1)


def test_rewrite_output_is_primitive_and_bounded():
    rng = seeded("rewprim")
    for _ in range(25):
        n, m = rng.choice([(1, 1), (2, 2), (3, 2), (2, 3)])
        x = random_element(rng, n, m, ZZ, 4)
        g = rewrite(x)
        assert g.is_primitive_alphabet()
        assert all(i <= n for (i, nu) in g.symbols())
        assert g.multidegrees() <= x.multidegrees()


def test_rewrite_preserves_grading():
    for al in alphas_of_multidegree(2, (2, 2), 3):
        g = rewrite(e_alpha(al, 3, 2, ZZ))
        assert g.multidegrees() <= {(2, 2)}
        # generated degree never exceeds the input degree
        assert g.max_symbol_degree() <= 4


def test_rewrite_symbol_degree_bound():
    # rewriting a basis element never produces a symbol whose total degree
    # exceeds the larger of the element's own degree and n*(m-1)
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for a in degrees_upto(m, 6):
                for al in alphas_of_multidegree(m, a, n):
                    g = rewrite(e_alpha(al, n, m, ZZ))
                    bound = max(sum(a), n * (m - 1))
                    assert g.max_symbol_degree() <= bound


def test_evaluate_symbols():
    assert evaluate(sym(2, A), 3) == e_alpha([(A, 2)], 3, 2, ZZ)
    assert evaluate(sym(3, A), 2).is_zero  # weight beyond the ambient
    x = evaluate(sym(1, A) * sym(1, B), 2)
    assert x == product(e_alpha([(A, 1)], 2, 2, ZZ),
                        e_alpha([(B, 1)], 2, 2, ZZ))
    assert evaluate(GenPoly.one(2, ZZ), 2) == MsfElement.one(2, 2, ZZ)


def test_plethysm_evaluates_to_its_orbit_sum():
    # e_h(y^k) = P_{h,k}(e_1(y), e_2(y), ...), through the orbit-sum product
    # rather than the power sums that built P_{h,k}
    for h in range(1, 13):
        for k in range(1, 12 // h + 1):
            assert evaluate(plethysm_P(h, k), INF) == e_alpha([((k,), h)], INF, 1, ZZ)


def test_symbol_monomial_product_matches_a_sorted_merge():
    rng = seeded("symmono")
    syms = [(i, nu) for i in (1, 2) for nu in [(1, 0), (0, 1), (1, 1), (2, 0)]]

    def draw():
        picked = rng.sample(syms, rng.randint(0, 3))
        return tuple(sorted([(s, rng.randint(1, 3)) for s in picked],
                            key=lambda t: _symbol_key(t[0])))

    for _ in range(200):
        a, b = draw(), draw()
        merged = dict(a)
        for s, e in b:
            merged[s] = merged.get(s, 0) + e
        want = tuple(sorted(merged.items(), key=lambda t: _symbol_key(t[0])))
        assert _symmono_mul(a, b) == want == _symmono_mul(b, a)


def test_round_trip_systematic_small():
    for n, m in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]:
        for a in degrees_upto(m, 3):
            for al in alphas_of_multidegree(m, a, n):
                for ring in (ZZ, F2):
                    x = e_alpha(al, n, m, ring)
                    assert evaluate(rewrite(x), n) == x


def test_round_trip_random():
    rng = seeded("roundtrip")
    for _ in range(20):
        n, m = rng.choice([(2, 2), (3, 1), (3, 2), (2, 3)])
        ring = rng.choice([ZZ, QQ, F2])
        x = random_element(rng, n, m, ring, 4)
        assert evaluate(rewrite(x), n) == x


def test_rewrite_then_expand_round_trip():
    # expanding the generator polynomial recovers the orbit-sum expansion
    rng = seeded("rewexp")
    from multisym.relations import genpoly_expand
    for _ in range(10):
        n, m = rng.choice([(2, 2), (3, 1), (2, 1)])
        x = random_element(rng, n, m, ZZ, 4)
        assert genpoly_expand(rewrite(x), n) == expand(x)


def test_free_monomial_count_small():
    # one variable: all monomials are powers of y, so the count is the
    # number of partitions
    for k, parts in [(0, 1), (1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11)]:
        assert free_monomial_count(1, (k,)) == parts
    assert free_monomial_count(2, (1, 1)) == 2
    with pytest.raises(ValueError):
        free_monomial_count(2, (1, 1, 1))


def test_genpoly_json_round_trip():
    g = sym(2, A) * sym(1, B).scale(ZZ.embed(-3)) + GenPoly.one(2, ZZ)
    d = genpoly_to_json(g)
    assert genpoly_from_json(d) == g
    h = rewrite(e_alpha([(A, 1), ((1, 1), 1)], 2, 2, QQ))
    assert genpoly_from_json(genpoly_to_json(h)) == h


def test_genpoly_json_rejects_malformed():
    import copy
    good = genpoly_to_json(sym(2, A))
    for breakage in [
            lambda d: d.pop("terms"),
            lambda d: d.update(m=0),
            lambda d: d.update(ring="R"),
            lambda d: d["terms"][0]["symbols"][0].update(nu=[1, 0, 0]),
            lambda d: d["terms"][0]["symbols"][0].pop("exp"),
    ]:
        d = copy.deepcopy(good)
        breakage(d)
        with pytest.raises(ValueError):
            genpoly_from_json(d)


def test_genpoly_json_rejects_non_integers():
    import copy
    good = genpoly_to_json(sym(2, A))

    def symbol(**fields):
        return lambda d: d["terms"][0]["symbols"][0].update(**fields)

    for breakage in [
            symbol(exp="2"), symbol(exp=True), symbol(exp=1.5), symbol(exp=0),
            symbol(exp=None),
            symbol(i="2"), symbol(i=True), symbol(i=2.0), symbol(i=0),
            symbol(nu=[True, 0]), symbol(nu=["1", 0]), symbol(nu=[0.5, 1]),
            lambda d: d.update(m=True),
            lambda d: d.update(ring=2),
            lambda d: d.update(terms={}),
            lambda d: d["terms"][0].update(symbols=7),
            lambda d: d["terms"][0].update(coeff=1),
    ]:
        d = copy.deepcopy(good)
        breakage(d)
        with pytest.raises(ValueError):
            genpoly_from_json(d)
    # the well-formed original still loads
    assert genpoly_from_json(copy.deepcopy(good)) == sym(2, A)
