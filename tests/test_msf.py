"""Orbit-sum basis elements: expansion, the product formula, truncation."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (REF_TEXT, alpha_pool, degrees_upto, random_element, ref_pair_render,
                      ref_sorted_rows, seeded)
from multisym.coeffring import QQ, ZZ, Zmod
from multisym.monomial import mono_mul
from multisym.msf import (INF, AmbientMismatch, MsfElement, WeightExceedsAmbient, _expand_alpha,
                          _intern_alpha, alpha_weight, alphas_of_multidegree, basis_alphas,
                          e_alpha, element_from_json, element_to_json, make_alpha)
from multisym.oracle import is_invariant, orbit_sum
from multisym.polyring import NPoly
from multisym.reference import (ek_of_f, expand, merge_repeats, parse_npoly, product,
                                subst_slot, truncate)
from multisym.rewrite import GenPoly, evaluate

F2 = Zmod(2)
Y1, Y2 = (1, 0), (0, 1)


def test_make_alpha_validation():
    assert make_alpha([(Y2, 1), (Y1, 2)]) == ((Y2, 1), (Y1, 2))
    assert make_alpha([(Y1, 2), (Y2, 1)]) == ((Y2, 1), (Y1, 2))
    with pytest.raises(ValueError):
        make_alpha([(Y1, 1), (Y1, 2)])  # repeated monomial
    with pytest.raises(ValueError):
        make_alpha([(Y1, 0)])  # zero multiplicity
    with pytest.raises(ValueError):
        make_alpha([((0, 0), 1)])  # constant monomial


def test_weight_guard():
    with pytest.raises(WeightExceedsAmbient):
        e_alpha([(Y1, 3)], 2, 2, ZZ)
    assert evaluate(GenPoly.symbol(3, (1,), 1, ZZ), 2).is_zero  # e_3 vanishes in two slots
    assert not e_alpha([(Y1, 2)], 2, 2, ZZ).is_zero
    e_alpha([(Y1, 3)], INF, 2, ZZ)  # no bound in the inverse limit


def test_expand_golden_three_slots():
    x = e_alpha([(Y1, 2), (Y2, 1)], 3, 2, ZZ)
    want = parse_npoly(
        "x1(1)*x1(2)*x2(3) + x1(1)*x2(2)*x1(3) + x2(1)*x1(2)*x1(3)",
        3, 2, ZZ)
    assert expand(x) == want


def test_expand_golden_four_slots():
    x = e_alpha([(Y1, 2), (Y2, 1)], 4, 2, ZZ)
    want = parse_npoly(
        "x1(1)*x1(2)*x2(3) + x1(1)*x2(2)*x1(3) + x2(1)*x1(2)*x1(3)"
        " + x1(1)*x1(2)*x2(4) + x1(1)*x2(2)*x1(4) + x2(1)*x1(2)*x1(4)"
        " + x1(1)*x1(3)*x2(4) + x1(1)*x2(3)*x1(4) + x2(1)*x1(3)*x1(4)"
        " + x1(2)*x1(3)*x2(4) + x1(2)*x2(3)*x1(4) + x2(2)*x1(3)*x1(4)",
        4, 2, ZZ)
    assert expand(x) == want


def test_expand_simple_cases():
    assert expand(e_alpha([((1,), 1)], 2, 1, ZZ)) == \
        parse_npoly("x1(1) + x1(2)", 2, 1, ZZ)
    assert expand(e_alpha([((1,), 2)], 2, 1, ZZ)) == \
        parse_npoly("x1(1)*x1(2)", 2, 1, ZZ)
    assert expand(MsfElement.one(3, 2, ZZ)) == NPoly.one(3, 2, ZZ)
    assert expand(MsfElement.zero(3, 2, ZZ)).is_zero


def test_expand_matches_orbit_sum_oracle():
    # a one-monomial index is the orbit sum of the corresponding monomial
    for n, m, mu, k in [(2, 1, (2,), 1), (3, 2, (1, 1), 2), (3, 1, (1,), 3)]:
        x = e_alpha([(mu, k)], n, m, ZZ)
        mono = sum((mu for _ in range(k)), ())
        pad = mono + (0,) * (n * m - len(mono))
        assert expand(x) == orbit_sum(pad, n, m, ZZ)


def test_expand_is_invariant_and_linear():
    rng = seeded("expandinv")
    for _ in range(15):
        n, m = rng.choice([(2, 2), (3, 1), (3, 2), (4, 1)])
        ring = rng.choice([ZZ, QQ, F2])
        x = random_element(rng, n, m, ring, 3)
        y = random_element(rng, n, m, ring, 3)
        assert is_invariant(expand(x), n)
        assert expand(x + y) == expand(x) + expand(y)
        assert expand(x - y) == expand(x) - expand(y)
    with pytest.raises(ValueError):
        expand(MsfElement.one(INF, 2, ZZ))


def test_expand_coefficients_are_all_one():
    # each slot assignment contributes exactly once
    x = e_alpha([(Y1, 2), ((1, 1), 1)], 4, 2, ZZ)
    assert all(c == 1 for c in expand(x).terms.values())


def test_merge_rule():
    al, c = merge_repeats([(Y1, 1), (Y1, 1)], ZZ)
    assert al == ((Y1, 2),) and c == 2
    al, c = merge_repeats([(Y1, 2), (Y2, 1), (Y1, 1)], ZZ)
    assert al == ((Y2, 1), (Y1, 3),) and c == 3  # 3!/(2!1!)
    al, c = merge_repeats([(Y1, 1), (Y2, 1)], ZZ)
    assert al == ((Y2, 1), (Y1, 1)) and c == 1
    al, c = merge_repeats([(Y1, 1), (Y1, 1)], F2)
    assert c == 0  # the integer 2 dies in characteristic 2


def test_product_identity_and_zero():
    x = e_alpha([(Y1, 1), (Y2, 1)], 3, 2, ZZ)
    assert product(x, MsfElement.one(3, 2, ZZ)) == x
    assert product(x, MsfElement.zero(3, 2, ZZ)).is_zero


def test_product_golden_two_slots_three_vars():
    # e_{(1,1)}(a, b) * e_2(c) = e_{(1,1)}(ac, bc) when only two slots exist
    a, b, c = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    x = e_alpha([(a, 1), (b, 1)], 2, 3, ZZ)
    y = e_alpha([(c, 2)], 2, 3, ZZ)
    want = e_alpha([(mono_mul(a, c), 1), (mono_mul(b, c), 1)], 2, 3, ZZ)
    assert product(x, y) == want


def test_product_e1_squared():
    y = (1,)
    x = e_alpha([(y, 1)], 2, 1, ZZ)
    got = product(x, x)
    want = e_alpha([(y, 2)], 2, 1, ZZ).scale(ZZ.embed(2)) + \
        e_alpha([((2,), 1)], 2, 1, ZZ)
    assert got == want
    # same product in characteristic two loses the doubled term
    x2 = e_alpha([(y, 1)], 2, 1, F2)
    assert product(x2, x2) == e_alpha([((2,), 1)], 2, 1, F2)
    assert expand(product(x2, x2)) == expand(x2) * expand(x2)


def test_product_ambient_mismatch():
    x = e_alpha([(Y1, 1)], 2, 2, ZZ)
    with pytest.raises(AmbientMismatch):
        product(x, e_alpha([(Y1, 1)], 3, 2, ZZ))
    with pytest.raises(AmbientMismatch):
        product(x, e_alpha([((1,), 1)], 2, 1, ZZ))
    with pytest.raises(AmbientMismatch):
        product(x, e_alpha([(Y1, 1)], 2, 2, QQ))


def test_product_is_pointwise_multiplication():
    # exhaustive on low-degree basis pairs, two rings
    for ring in (ZZ, F2):
        pool = [e_alpha(al, 2, 2, ring) for al in alpha_pool(2, 2, 2)]
        for x, y in itertools.combinations_with_replacement(pool, 2):
            assert expand(product(x, y)) == expand(x) * expand(y)


def test_product_random_homomorphism():
    rng = seeded("homsmall")
    for _ in range(40):
        n, m = rng.choice([(2, 2), (3, 2), (4, 1), (3, 3)])
        ring = rng.choice([ZZ, QQ, F2, Zmod(3)])
        x = random_element(rng, n, m, ring, 3)
        y = random_element(rng, n, m, ring, 3)
        assert expand(product(x, y)) == expand(x) * expand(y)


def test_product_homomorphism_high_degree_draws():
    # push the sampled term multidegrees up to total 6 over the whole
    # (n <= 4, m <= 3) envelope, for Z and Zmod:2
    rng = seeded("hombig")
    for ring in (ZZ, F2):
        for n in (1, 2, 3, 4):
            for m in (1, 2, 3):
                for _ in range(3):
                    x = random_element(rng, n, m, ring, 6, max_terms=2)
                    y = random_element(rng, n, m, ring, 6, max_terms=2)
                    assert expand(product(x, y)) == expand(x) * expand(y)


def test_product_commutative_associative_distributive():
    rng = seeded("ring-axioms")
    for _ in range(10):
        n, m = rng.choice([(2, 2), (3, 1)])
        x = random_element(rng, n, m, ZZ, 2)
        y = random_element(rng, n, m, ZZ, 2)
        z = random_element(rng, n, m, ZZ, 2)
        assert product(x, y) == product(y, x)
        assert product(product(x, y), z) == product(x, product(y, z))
        assert product(x, y + z) == product(x, y) + product(x, z)


def test_product_grading():
    x = e_alpha([(Y1, 2)], 3, 2, ZZ)
    y = e_alpha([(Y2, 1), ((1, 1), 1)], 3, 2, ZZ)
    got = product(x, y)
    assert got.multidegrees() == {(3, 2)}


def test_infinite_ambient_product_and_truncation():
    y = (1,)
    x = e_alpha([(y, 1)], INF, 1, ZZ)
    got = product(x, x)
    want = e_alpha([(y, 2)], INF, 1, ZZ).scale(ZZ.embed(2)) + \
        e_alpha([((2,), 1)], INF, 1, ZZ)
    assert got == want
    # truncating the infinite product agrees with the finite product
    rng = seeded("proj")
    for _ in range(12):
        m = rng.choice([1, 2])
        u = random_element(rng, INF, m, ZZ, 3)
        v = random_element(rng, INF, m, ZZ, 3)
        for n in (1, 2, 3):
            lhs = truncate(product(u, v), n)
            rhs = product(truncate(u, n), truncate(v, n))
            assert lhs == rhs


def test_truncate_rules():
    y = (1,)
    x = e_alpha([(y, 3)], INF, 1, ZZ) + e_alpha([(y, 1)], INF, 1, ZZ)
    t = truncate(x, 2)
    assert t == e_alpha([(y, 1)], 2, 1, ZZ)
    assert truncate(x, INF) == x
    fin = e_alpha([(y, 1)], 2, 1, ZZ)
    assert truncate(fin, 2) == fin
    assert truncate(fin, 1) == e_alpha([(y, 1)], 1, 1, ZZ)
    with pytest.raises(ValueError):
        truncate(fin, 3)  # no canonical lift to a larger ambient
    with pytest.raises(ValueError):
        truncate(fin, INF)


def test_ek_of_f_small_cases():
    a = NPoly.variable(1, 1, 1, 2, ZZ)
    b = NPoly.variable(2, 1, 1, 2, ZZ)
    assert ek_of_f(a + b, 0, 3) == MsfElement.one(3, 2, ZZ)
    got = ek_of_f(a + b, 2, 3)
    want = e_alpha([(Y1, 2)], 3, 2, ZZ) + e_alpha([(Y1, 1), (Y2, 1)], 3, 2, ZZ) \
        + e_alpha([(Y2, 2)], 3, 2, ZZ)
    assert got == want
    assert ek_of_f(a.scale(ZZ.embed(3)), 2, 3) == \
        e_alpha([(Y1, 2)], 3, 2, ZZ).scale(ZZ.embed(9))
    assert ek_of_f(a, 4, 3).is_zero  # k beyond a finite ambient
    assert ek_of_f(NPoly.zero(1, 2, ZZ), 2, 3).is_zero
    with pytest.raises(ValueError):
        ek_of_f(a + NPoly.one(1, 2, ZZ), 1, 3)  # nonzero constant term
    # f is a polynomial in y_1..y_m: one slot of m variables
    for k in (0, 2):
        with pytest.raises(ValueError):
            ek_of_f(NPoly.variable(1, 1, 2, 2, ZZ), k, 3)


def test_ek_of_f_generating_function():
    # prod_j (1 + t f(j)) has t^k coefficient e_k(f)
    rng = seeded("genfun")
    for _ in range(8):
        n, m = rng.choice([(2, 2), (3, 1), (3, 2)])
        f = NPoly.zero(1, m, ZZ)
        for _ in range(rng.randint(1, 3)):
            mu = tuple(rng.randint(0, 2) for _ in range(m))
            if not any(mu):
                continue
            f = f + NPoly.monomial(mu, 1, m, ZZ, ZZ.embed(rng.randint(-2, 3)))
        coeffs = [NPoly.one(n, m, ZZ)]  # coefficients in t
        for j in range(1, n + 1):
            fj = subst_slot(f, j, n)
            new = coeffs + [NPoly.zero(n, m, ZZ)]
            for d, c in enumerate(coeffs):
                new[d + 1] = new[d + 1] + c * fj
            coeffs = new
        for k in range(n + 1):
            assert expand(ek_of_f(f, k, n)) == coeffs[k]


def test_json_round_trip():
    rng = seeded("json")
    for _ in range(20):
        n, m = rng.choice([(2, 2), (3, 1), (INF, 2)])
        ring = rng.choice([ZZ, QQ, F2])
        x = random_element(rng, 10 if n is INF else n, m, ring, 3)
        if n is INF:
            x = MsfElement(INF, m, ring, x.terms)
        d = element_to_json(x)
        assert element_from_json(d) == x
    d = element_to_json(MsfElement.one(INF, 2, QQ))
    assert d["n"] == "inf"
    assert element_from_json(d).n is INF


def test_json_rejects_malformed():
    good = element_to_json(e_alpha([(Y1, 1)], 2, 2, ZZ))
    for breakage in [
            lambda d: d.pop("ring"),
            lambda d: d.update(ring="Zmod:4"),
            lambda d: d.update(n=-1),
            lambda d: d["terms"][0]["alpha"].append(
                {"mono": [1, 0], "mult": 1}),  # duplicate support monomial
            lambda d: d["terms"][0]["alpha"][0].update(mult=0),
            lambda d: d["terms"][0]["alpha"][0].update(mono=[1]),
            lambda d: d["terms"][0].update(coeff="1/2"),  # not in Z
    ]:
        import copy
        d = copy.deepcopy(good)
        breakage(d)
        with pytest.raises(ValueError):
            element_from_json(d)
    # weight beyond the stated ambient
    d = element_to_json(e_alpha([(Y1, 3)], 3, 2, ZZ))
    d["n"] = 2
    with pytest.raises(ValueError):
        element_from_json(d)


def test_index_enumeration():
    assert [al for al in alphas_of_multidegree(2, (1, 1))] == [
        make_alpha([((1, 1), 1)]),
        make_alpha([(Y2, 1), (Y1, 1)]),
    ]
    assert len(alphas_of_multidegree(1, (4,))) == 5  # partitions of 4
    assert alphas_of_multidegree(2, (0, 0)) == [()]
    # the weight cap keeps exactly the indices that survive in A(n, m)
    full = alphas_of_multidegree(1, (4,))
    assert basis_alphas(2, 1, (4,)) == \
        [al for al in full if alpha_weight(al) <= 2]


@pytest.mark.parametrize("a", [(-1, 2), (True, 2), (1.0, 2), (1, "2")])
def test_index_enumeration_refuses_bad_components(a):
    # (True, 2) hashes as (1, 2), whose enumeration is cached first
    assert alphas_of_multidegree(2, (1, 2)) and basis_alphas(2, 2, (1, 2))
    with pytest.raises(ValueError):
        alphas_of_multidegree(2, a)
    with pytest.raises(ValueError):
        basis_alphas(2, 2, a)


@pytest.mark.parametrize("n", [-1, 0, True, 1.5, 2.0, "2", INF])
def test_basis_enumeration_refuses_bad_slot_counts(n):
    # unchecked, -1 gives [], 1.5 a TypeError from range, and True one slot
    assert basis_alphas(1, 2, (1, 1)) == [make_alpha([((1, 1), 1)])]
    with pytest.raises(ValueError):
        basis_alphas(n, 2, (1, 1))


@pytest.mark.parametrize("a", [(1, 1), (0, 0)])
@pytest.mark.parametrize("bound", [-1, True, 1.5, 2.0, "x", INF])
def test_index_enumeration_refuses_bad_weight_bounds(a, bound):
    # unchecked, 1.5 and "x" raise TypeError from range, -1 gives [] for
    # (1, 1) but [()] for (0, 0), and True reads as 1
    assert alphas_of_multidegree(2, a, 2)
    with pytest.raises(ValueError):
        alphas_of_multidegree(2, a, bound)


def test_index_enumeration_takes_weight_bounds_from_zero():
    assert alphas_of_multidegree(2, (0, 0), 0) == [()]
    assert alphas_of_multidegree(2, (1, 1), 0) == []
    assert alphas_of_multidegree(2, (1, 1), 1) == [make_alpha([((1, 1), 1)])]
    assert alphas_of_multidegree(2, (1, 1), None) == alphas_of_multidegree(2, (1, 1), 2)


def writers_order(alphas) -> list:
    """The writers' canonical term order (the earlier sort of conftest),
    then stable by weight: the order the enumeration must give."""
    rows = ref_sorted_rows(dict.fromkeys(alphas), ref_pair_render, REF_TEXT)[0]
    return sorted([alpha for alpha, _ in rows], key=alpha_weight)


@pytest.mark.parametrize("m, top", [(1, 9), (2, 5), (3, 3)])
def test_index_enumeration_keeps_the_writers_order(m, top):
    for a in degrees_upto(m, top):
        for cap in (None, 1, 2, 3):
            got = alphas_of_multidegree(m, a, cap)
            assert got == writers_order(got[::-1]), (a, cap)


def naive_orbit_keys(alpha, n, m, w) -> tuple:
    """Packed keys of the orbit sum of e_alpha: one per placement of the
    weight-many arguments into distinct slots that gives each monomial an
    increasing run of slots, in lexicographic order of the placements."""
    mults = [mult for _, mult in alpha]
    out = []
    for slots in itertools.permutations(range(n), sum(mults)):
        runs = [slots[sum(mults[:t]):sum(mults[:t + 1])] for t in range(len(mults))]
        if any(list(run) != sorted(run) for run in runs):
            continue
        flat = [0] * (n * m)
        for (mu, _), run in zip(alpha, runs):
            for j in run:
                flat[j * m:(j + 1) * m] = mu
        out.append(sum(e << (i * w) for i, e in enumerate(flat)))
    return tuple(out)


@pytest.mark.parametrize("m, top", [(1, 5), (2, 4), (3, 3)])
def test_expand_alpha_matches_naive_placements(m, top):
    pool = alpha_pool(INF, m, top)
    assert () in pool and max(map(alpha_weight, pool)) > 2
    for n in (1, 2, 3, 4):
        for alpha in pool:
            want = naive_orbit_keys(alpha, n, m, 4)
            assert _expand_alpha(_intern_alpha(alpha), n, m, 4) == want, (alpha, n)
            assert bool(want) == (alpha_weight(alpha) <= n)


def test_text_form():
    x = e_alpha([(Y1, 2)], 3, 2, ZZ).scale(ZZ.embed(2)) + \
        e_alpha([((2, 0), 1)], 3, 2, ZZ)
    assert x.text() == "2*e(y1:2) + e(y1^2:1)"
    assert MsfElement.zero(2, 1, ZZ).text() == "0"
    assert MsfElement.one(2, 1, ZZ).text() == "1"


def _elements(n, m, max_total):
    pool = alpha_pool(n, m, max_total)

    def build(pairs):
        terms = {}
        for al, c in pairs:
            terms[al] = terms.get(al, 0) + c
        terms = {al: c for al, c in terms.items() if c}
        return MsfElement(n, m, ZZ, terms)

    pair = st.tuples(st.sampled_from(pool),
                     st.integers(min_value=-3, max_value=3))
    return st.lists(pair, max_size=4).map(build)


@settings(max_examples=40, deadline=None)
@given(_elements(2, 2, 3), _elements(2, 2, 3))
def test_product_homomorphism_property(x, y):
    assert expand(product(x, y)) == expand(x) * expand(y)


@settings(max_examples=25, deadline=None)
@given(_elements(INF, 1, 4), _elements(INF, 1, 4))
def test_truncation_is_compatible_with_products(x, y):
    xy = product(x, y)
    for n in (1, 2, 3):
        assert truncate(xy, n) == product(truncate(x, n), truncate(y, n))
