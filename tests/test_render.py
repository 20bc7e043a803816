"""The writers built on cached render records give the bytes and the order
of the per-term writers they replaced.

MsfElement.text, GenPoly.text, element_json_text, genpoly_json_text and
both sorted_terms sort by one integer key per term and write fragments
taken from ring-free caches of one support pair (msf._pair_render) or one
symbol factor (rewrite._factor_render); npoly_text keeps its own writer.
The reference below is the earlier code, kept verbatim apart from taking
the object as an argument: each writer must give the same text over Z, Q
and Z/p, for m = 1..3, n = inf and 1..3, coefficients +-1, constant terms
and empty elements, and the records filled by one ring must not change
what another ring writes.
"""

import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multisym
from conftest import alpha_pool
from multisym import msf
from multisym.coeffring import QQ, ZZ, Zmod
from multisym.monomial import grlex_key
from multisym.msf import (INF, MsfElement, alpha_text, alphas_of_multidegree,
                          element_json_text, make_alpha)
from multisym.polyring import npoly_text
from multisym.rewrite import (GenPoly, genpoly_json_text, genpoly_texts, newton_p, plethysm_P,
                              rewrite)

RINGS = [ZZ, QQ, Zmod(2), Zmod(7), Zmod(1000003)]


# ---- reference: the per-term writers as they were -------------------------

def ref_alpha_key(alpha, m: int) -> tuple:
    total = 0
    key = [0, 0]
    scaled = []
    for mu, mult in alpha:
        s = sum(mu)
        total += s * mult
        key += (s, mu, mult)
        scaled.append(mu if mult == 1 else [e * mult for e in mu])
    key[0] = total
    key[1] = tuple(map(sum, zip(*scaled))) if scaled else (0,) * m
    return tuple(key)


def ref_mono_text(mu) -> str:
    if not any(mu):
        return "1"
    return "*".join(
        f"y{i+1}" + (f"^{e}" if e > 1 else "")
        for i, e in enumerate(mu) if e
    )


def ref_alpha_text(alpha) -> str:
    if not alpha:
        return "1"
    return "e(" + ", ".join(f"{ref_mono_text(mu)}:{mult}" for mu, mult in alpha) + ")"


def ref_msf_sorted_terms(x):
    m = x.m
    return sorted(x.terms.items(), key=lambda t: ref_alpha_key(t[0], m))


def ref_msf_text(x) -> str:
    if not x.terms:
        return "0"
    R = x.ring
    bits = []
    for alpha, c in ref_msf_sorted_terms(x):
        body = ref_alpha_text(alpha)
        cs = R.format_coeff(c)
        if alpha:
            t = body if cs == "1" else (f"-{body}" if cs == "-1" else f"{cs}*{body}")
        else:
            t = cs
        bits.append(t)
    out = bits[0]
    for t in bits[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


def ref_element_json_text(x) -> str:
    fmt = x.ring.format_coeff
    terms = ",".join([
        '{"alpha":[%s],"coeff":"%s"}' % (
            ",".join(['{"mono":[%s],"mult":%d}' % (",".join(map(str, mu)), mult)
                      for mu, mult in alpha]),
            fmt(c))
        for alpha, c in ref_msf_sorted_terms(x)])
    n = '"inf"' if x.n is INF else x.n
    return f'{{"m":{x.m},"n":{n},"ring":"{x.ring.to_string()}","terms":[{terms}]}}'


def ref_term_key(symmono, m: int) -> tuple:
    total = 0
    key = [0, 0]
    scaled = []
    for (i, nu), e in symmono:
        s = sum(nu)
        total += s * i * e
        key += (s, nu, i, e)
        scaled.append([x * i * e for x in nu])
    key[0] = total
    key[1] = tuple(map(sum, zip(*scaled))) if scaled else (0,) * m
    return tuple(key)


def ref_genpoly_sorted_terms(g):
    return sorted(g.terms.items(), key=lambda t: ref_term_key(t[0], g.m))


def ref_genpoly_text(g) -> str:
    if not g.terms:
        return "0"
    R = g.ring
    bits = []
    for symmono, c in ref_genpoly_sorted_terms(g):
        vs = "*".join(
            "E[%d;(%s)]" % (i, ",".join(str(x) for x in nu))
            + (f"^{e}" if e > 1 else "")
            for (i, nu), e in symmono
        )
        cs = R.format_coeff(c)
        if vs:
            t = vs if cs == "1" else (f"-{vs}" if cs == "-1" else f"{cs}*{vs}")
        else:
            t = cs
        bits.append(t)
    out = bits[0]
    for t in bits[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


def ref_genpoly_json_text(g, check=None) -> str:
    fmt = g.ring.format_coeff
    terms = ",".join([
        '{"coeff":"%s","symbols":[%s]}' % (
            fmt(c),
            ",".join(['{"exp":%d,"i":%d,"nu":[%s]}' % (e, i, ",".join(map(str, nu)))
                      for (i, nu), e in symmono]))
        for symmono, c in ref_genpoly_sorted_terms(g)])
    head = "" if check is None else f'"check":"{check}",'
    return f'{{{head}"m":{g.m},"ring":"{g.ring.to_string()}","terms":[{terms}]}}'


def ref_npoly_text(p) -> str:
    if not p.terms:
        return "0"
    R = p.ring
    bits = []
    for mono, c in p.sorted_terms():
        vs = []
        for flat, e in enumerate(mono):
            if e:
                i = flat % p.m + 1
                j = flat // p.m + 1
                vs.append(f"x{i}({j})" + (f"^{e}" if e > 1 else ""))
        body = "*".join(vs)
        cs = R.format_coeff(c)
        if body:
            txt = body if cs == "1" else (f"-{body}" if cs == "-1" else f"{cs}*{body}")
        else:
            txt = cs
        bits.append(txt)
    out = bits[0]
    for t in bits[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


# ---- strategies -----------------------------------------------------------

@st.composite
def coeffs(draw, ring):
    """Nonzero in most rings; +-1, whose text drops the coefficient, is drawn often."""
    if ring == QQ:
        return Fraction(draw(st.sampled_from([1, -1]) | st.integers(-40, 40)),
                        draw(st.sampled_from([1, 1, 2, 3, 12])))
    return ring.embed(draw(st.sampled_from([1, -1]) | st.integers(-10**6, 10**6)))


@st.composite
def elements(draw, ring=None):
    ring = ring or draw(st.sampled_from(RINGS))
    n = draw(st.sampled_from([INF, 1, 2, 3]))
    m = draw(st.integers(1, 3))
    terms = {}
    for alpha in draw(st.lists(st.sampled_from(alpha_pool(n, m, 3)), max_size=8)):
        terms[alpha] = draw(coeffs(ring))
    return MsfElement(n, m, ring, terms)


@st.composite
def genpolys(draw, m=None):
    ring = draw(st.sampled_from(RINGS))
    m = m or draw(st.integers(1, 3))
    nus = [nu for nu in itertools.product(range(3), repeat=m) if 0 < sum(nu) <= 2]
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        syms = {}
        for _ in range(draw(st.integers(0, 3))):  # no symbols: the constant term
            sym = (draw(st.integers(1, 3)), draw(st.sampled_from(nus)))
            syms[sym] = syms.get(sym, 0) + draw(st.integers(1, 3))
        symmono = tuple(sorted(syms.items(), key=lambda t: (grlex_key(t[0][1]), t[0][0])))
        terms[symmono] = draw(coeffs(ring))
    return GenPoly(m, ring, terms)


def assert_element_written_as_before(x):
    assert x.sorted_terms() == ref_msf_sorted_terms(x)
    assert x.text() == ref_msf_text(x)
    assert element_json_text(x) == ref_element_json_text(x)
    keys = [ref_alpha_key(alpha, x.m) for alpha, _ in x.sorted_terms()]
    assert keys == sorted(set(keys))  # strictly rising under the reference key
    for alpha in x.terms:
        assert alpha_text(alpha) == ref_alpha_text(alpha)


def assert_genpoly_written_as_before(g):
    assert g.sorted_terms() == ref_genpoly_sorted_terms(g)
    assert g.text() == ref_genpoly_text(g)
    for check in (None, "PASS", "FAIL"):
        assert genpoly_json_text(g, check) == ref_genpoly_json_text(g, check)


# ---- tests ----------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(elements())
def test_element_writers_match_reference(x):
    assert_element_written_as_before(x)
    assert_element_written_as_before(x * x)


@settings(max_examples=150, deadline=None)
@given(genpolys())
def test_genpoly_writers_match_reference(g):
    assert_genpoly_written_as_before(g)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda m: st.lists(genpolys(m), max_size=6)))
def test_batched_texts_match_reference(gs):
    # mixed sizes and rings, empty and constant ones included
    m = gs[0].m if gs else 2
    gs += [GenPoly.zero(m, ZZ), GenPoly.const(Fraction(-1, 2), m, QQ)]
    want = [ref_genpoly_text(g) for g in gs]
    assert genpoly_texts(gs) == want
    assert [g.text() for g in gs] == want
    assert genpoly_texts([]) == []
    with pytest.raises(ValueError):
        genpoly_texts([GenPoly.one(1, ZZ), GenPoly.one(2, ZZ)])


@settings(max_examples=60, deadline=None)
@given(elements())
def test_rewrite_and_expansion_writers_match_reference(x):
    assert_genpoly_written_as_before(rewrite(x))
    if x.n is not INF:
        p = x.expand()
        assert npoly_text(p) == ref_npoly_text(p)


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("n", [INF, 1, 3])
def test_empty_constant_and_unit_coefficients(ring, n):
    one, minus = ring.one, ring.neg(ring.one)
    y1, y1y2 = (((1, 0), 1),), (((0, 2), 1), ((1, 1), 1))
    cases = [MsfElement.zero(n, 2, ring), MsfElement.one(n, 2, ring),
             MsfElement(n, 2, ring, {(): minus}),
             MsfElement(n, 2, ring, {y1: minus, (): one}),
             MsfElement(n, 2, ring, {y1: one, (): minus})]
    if n is INF or n >= 2:
        cases.append(MsfElement(n, 2, ring, {y1y2: minus, y1: minus, (): ring.embed(5)}))
    for x in cases:
        assert_element_written_as_before(x)
        if n is not INF:
            assert npoly_text(x.expand()) == ref_npoly_text(x.expand())
    sym = (((1, (1, 0)), 2),)
    for g in [GenPoly.zero(2, ring), GenPoly.one(2, ring),
              GenPoly(2, ring, {(): minus}), GenPoly(2, ring, {sym: minus, (): one}),
              GenPoly(2, ring, {sym: one, (): minus})]:
        assert_genpoly_written_as_before(g)
    assert MsfElement.zero(n, 2, ring).text() == GenPoly.zero(2, ring).text() == "0"


def test_newton_and_plethysm_written_as_before():
    polys = [newton_p(k) for k in range(1, 8)]
    polys += [plethysm_P(h, k) for h in range(4) for k in range(1, 4)]
    for g in polys:
        assert_genpoly_written_as_before(g)


@pytest.mark.parametrize("m,a", [(1, (6,)), (2, (3, 2)), (3, (2, 1, 2))])
def test_basis_order_matches_reference(m, a):
    msf._alphas_cached.cache_clear()
    got = alphas_of_multidegree(m, a)
    assert got == sorted(got, key=lambda al: (msf.alpha_weight(al), ref_alpha_key(al, m)))
    assert len(got) > 5


@settings(max_examples=40, deadline=None)
@given(elements(ring=ZZ), st.permutations(RINGS))
def test_warm_records_write_every_ring_as_cold(x, rings):
    """One integer element in every ring, each written once after the other
    rings filled the records and once from empty caches."""
    images = [MsfElement(x.n, x.m, R, {a: R.embed(c) for a, c in x.terms.items()})
              for R in rings]
    gs = [rewrite(y) for y in images]
    multisym.clear_caches()
    warm = [(y.text(), element_json_text(y), g.text(), genpoly_json_text(g))
            for y, g in zip(images, gs)]
    for y, g, got in zip(images, gs, warm):
        multisym.clear_caches()
        assert got == (y.text(), element_json_text(y), g.text(), genpoly_json_text(g))
        assert got == (ref_msf_text(y), ref_element_json_text(y),
                       ref_genpoly_text(g), ref_genpoly_json_text(g))


def test_records_are_keyed_by_pair_or_factor_alone():
    """Writing the same element in another ring adds no record."""
    from multisym.rewrite import _factor_render

    caches = (msf._pair_render, _factor_render)
    multisym.clear_caches()
    sizes = None
    for R in RINGS:
        x = MsfElement(INF, 2, R, {(((0, 1), 1), ((1, 0), 2)): R.embed(3)})
        assert x.text() == ref_msf_text(x)
        assert rewrite(x).text() == ref_genpoly_text(rewrite(x))
        now = [c.cache_info().currsize for c in caches]
        assert sizes in (None, now) and all(now)
        sizes = now


# ---- edges of the integer sort keys ---------------------------------------

BIG = 1 << 40
Y1, Y2, Y1Y2 = (1, 0), (0, 1), (1, 1)


def test_wide_fields_product_matches_reference():
    """A multiplicity of 2^40 makes the key fields far wider than the base
    width; the product is the one the CLI writes with digest 3cff8ce2..."""
    x = MsfElement(INF, 2, ZZ, {((Y1, BIG),): 1, ((Y2, 3),): 2})
    y = MsfElement(INF, 2, ZZ, {((Y2, 1),): 1, ((Y1Y2, 2),): -1})
    z = x * y
    for w in (x, y, z):
        assert_element_written_as_before(w)
    digest = hashlib.sha256((element_json_text(z) + "\n").encode()).hexdigest()
    assert digest == "3cff8ce267d7738289bf8711168ce5272a1268bcc9c46cfceba5bba91c2a21d8"


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(7)])
def test_prefix_indices_and_equal_multidegrees(ring):
    """An index that is a prefix of another, and indices of one multidegree
    with different numbers of parts, keep the reference order."""
    c = ring.embed(3)
    supports = [[(Y2, 1)], [(Y2, 1), (Y1, 1)], [(Y1Y2, 1)], [(Y2, 1), (Y1Y2, 1)],
                [(Y2, 1), (Y1, 2)], [(Y1, 1), (Y2, 2)], [(Y2, 1), (Y1Y2, 1), ((2, 1), 1)],
                [(Y1, 2)], [(Y2, 2), (Y1, 1), (Y1Y2, 1)]]
    x = MsfElement(INF, 2, ring, {make_alpha(sup): c for sup in supports})
    assert ((Y2, 1),) in x.terms and ((Y2, 1), (Y1, 1)) in x.terms
    assert_element_written_as_before(x)
    s1, s2 = (1, Y1), (1, Y2)
    g = GenPoly(2, ring, {((s2, 1),): c, ((s2, 1), (s1, 1)): c,
                          (((1, Y1Y2), 1),): c, ((s1, 2),): c, (((2, Y1), 1),): c})
    assert_genpoly_written_as_before(g)


@pytest.mark.parametrize("ring", RINGS)
def test_constant_first_single_term_and_zero(ring):
    five = ring.embed(5)
    x = MsfElement(INF, 2, ring, {((Y1Y2, 2),): five, (): five, ((Y1, 1),): five})
    assert x.sorted_terms()[0][0] == ()
    assert x.text().startswith(ring.format_coeff(five) + " + ")
    assert_element_written_as_before(x)
    one = MsfElement(INF, 2, ring, {((Y2, 4),): five})
    assert_element_written_as_before(one)
    zero = MsfElement.zero(INF, 2, ring)
    assert zero.text() == "0" and zero.sorted_terms() == []
    assert_element_written_as_before(zero)
    g = GenPoly(2, ring, {(((3, Y2), 1),): five, (): five})
    assert g.sorted_terms()[0][0] == ()
    assert_genpoly_written_as_before(g)
    assert_genpoly_written_as_before(GenPoly.zero(2, ring))


def test_genpoly_factor_exponent_two_to_the_forty():
    for ring in (ZZ, QQ, Zmod(5)):
        g = GenPoly(2, ring, {(((1, Y1), BIG),): ring.one, (((1, Y2), 1),): ring.embed(-1),
                              (((1, Y1), 1), ((2, Y1Y2), BIG)): ring.embed(2), (): ring.embed(3)})
        assert_genpoly_written_as_before(g)
        assert_genpoly_written_as_before(g * g)


@st.composite
def wide_elements(draw):
    """Elements whose multiplicities are small or beyond 2^32."""
    ring = draw(st.sampled_from(RINGS))
    m = draw(st.integers(1, 3))
    monos = [mu for mu in itertools.product(range(3), repeat=m) if any(mu)]
    mults = st.sampled_from([1, 2, 3]) | st.integers(2**32 - 2, 2**34)
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        support = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
        terms[make_alpha([(mu, draw(mults)) for mu in support])] = draw(coeffs(ring))
    return MsfElement(INF, m, ring, terms)


@settings(max_examples=100, deadline=None)
@given(wide_elements())
def test_multiplicities_above_two_to_the_32_match_reference(x):
    assert_element_written_as_before(x)
    g = GenPoly(x.m, x.ring, {tuple([((1, mu), mult) for mu, mult in alpha]): c
                              for alpha, c in x.terms.items()})
    assert_genpoly_written_as_before(g)
