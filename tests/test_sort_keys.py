"""The writers order terms exactly as the nested keys do, and spell them
as json.dumps and a per-term text writer do.

MsfElement.sorted_terms and GenPoly.sorted_terms fix the order of every
printed and serialized term, so the byte-pinned outputs depend on it.
Every writer reads the cached row of each id: the properties below write
each element from empty rows, again from the rows the first write
filled, and again after clear_caches, over Z, Q and Z/p for m = 1..3.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multisym
from conftest import random_element, seeded
from multisym.coeffring import QQ, ZZ, Zmod
from multisym.msf import (INF, MsfElement, alpha_multidegree, alphas_of_multidegree,
                          element_json_text, make_alpha)
from multisym.rewrite import GenPoly, genpoly_json_text, genpoly_texts, rewrite


def grlex(mu):
    return (sum(mu), mu)


def nested_alpha_key(alpha, m):
    a = alpha_multidegree(alpha, m)
    return (sum(a), a, tuple((grlex(mu), mult) for mu, mult in alpha))


def nested_term_key(symmono, m):
    d = [0] * m
    for (i, nu), e in symmono:
        for t, x in enumerate(nu):
            d[t] += i * x * e
    d = tuple(d)
    return (sum(d), d, tuple(((grlex(nu), i), e) for (i, nu), e in symmono))


def shuffled(items, tag):
    items = list(items)
    random.Random(tag).shuffle(items)
    return items


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [INF, 3])
def test_alpha_key_orders_terms_as_nested_key(m, n):
    rng = seeded(f"sortkeys:{m}:{n}")
    x = random_element(rng, n, m, ZZ, 8 - 2 * m, max_terms=6)
    y = random_element(rng, n, m, ZZ, 8 - 2 * m, max_terms=6)
    p = x * y + x + x.one(n, m, ZZ)
    assert len(p.terms) > 10
    items = shuffled(p.terms.items(), f"msf:{m}:{n}")
    assert p.sorted_terms() == sorted(items, key=lambda t: nested_alpha_key(t[0], m))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_term_key_orders_terms_as_nested_key(m):
    rng = seeded(f"sortkeys:gen:{m}")
    seen = 0
    for k in range(4):
        x = random_element(rng, INF, m, QQ, 8 - 2 * m, max_terms=8)
        y = random_element(rng, INF, m, QQ, 8 - 2 * m, max_terms=8)
        g = rewrite(x * y + x)
        g = g + g.one(m, QQ)
        seen += len(g.terms)
        items = shuffled(g.terms.items(), f"gen:{m}:{k}")
        assert g.sorted_terms() == sorted(items, key=lambda t: nested_term_key(t[0], m))
    assert seen > 40


def test_term_key_orders_one_multidegree_as_nested_key():
    """Terms of one multidegree are told apart by their symbols alone, and
    lex and grlex order disagree on (0,1,1) and (1,0,0)."""
    m, a = 3, (2, 2, 1)
    x = MsfElement(INF, m, ZZ, {alpha: c for c, alpha in
                                enumerate(alphas_of_multidegree(m, a), 1)})
    g = rewrite(x)
    assert len(g.terms) > 20
    items = shuffled(g.terms.items(), "gen:one-degree")
    assert g.sorted_terms() == sorted(items, key=lambda t: nested_term_key(t[0], m))
    items = shuffled(x.terms.items(), "msf:one-degree")
    assert x.sorted_terms() == sorted(items, key=lambda t: nested_alpha_key(t[0], m))


# ---- the writers against the nested keys and json.dumps --------------------

WRITE_RINGS = [ZZ, QQ, Zmod(7)]
BIG = 1 << 40


def ref_signed(rows) -> str:
    """A sum from (coefficient text, body) rows: a coefficient of 1 or -1
    is left out before a body, a leading minus joins as " - "."""
    out = ""
    for cs, body in rows:
        t = cs if not body else body if cs == "1" else "-" + body if cs == "-1" else f"{cs}*{body}"
        out += t if not out else " - " + t[1:] if t.startswith("-") else " + " + t
    return out or "0"


def ref_mono(mu) -> str:
    return "*".join(f"y{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(mu) if e)


def ref_element_terms(x) -> list:
    return sorted(x.terms.items(), key=lambda t: nested_alpha_key(t[0], x.m))


def ref_element_writes(x) -> tuple:
    fmt = x.ring.format_coeff
    terms = ref_element_terms(x)
    text = ref_signed((fmt(c), "e(%s)" % ", ".join(f"{ref_mono(mu)}:{k}" for mu, k in alpha)
                       if alpha else "") for alpha, c in terms)
    obj = {"m": x.m, "n": "inf" if x.n is INF else x.n, "ring": x.ring.to_string(),
           "terms": [{"alpha": [{"mono": list(mu), "mult": k} for mu, k in alpha],
                      "coeff": fmt(c)} for alpha, c in terms]}
    return terms, text, json.dumps(obj, sort_keys=True, separators=(",", ":"))


def ref_genpoly_terms(g) -> list:
    return sorted(g.terms.items(), key=lambda t: nested_term_key(t[0], g.m))


def ref_genpoly_writes(g, check) -> tuple:
    fmt = g.ring.format_coeff
    terms = ref_genpoly_terms(g)
    text = ref_signed((fmt(c), "*".join("E[%d;(%s)]" % (i, ",".join(map(str, nu)))
                                         + (f"^{e}" if e > 1 else "") for (i, nu), e in symmono))
                      for symmono, c in terms)
    obj = {"check": check, "m": g.m, "ring": g.ring.to_string(),
           "terms": [{"coeff": fmt(c),
                      "symbols": [{"exp": e, "i": i, "nu": list(nu)} for (i, nu), e in symmono]}
                     for symmono, c in terms]}
    if check is None:
        del obj["check"]
    return terms, text, json.dumps(obj, sort_keys=True, separators=(",", ":"))


def three_writes(write):
    """write() from empty rows, from the rows it filled, and after clear_caches."""
    multisym.clear_caches()
    got = [write(), write()]
    multisym.clear_caches()
    return got + [write()]


wide_exps = st.integers(0, 2) | st.integers(128, 300)
mults = st.integers(1, 3) | st.integers(BIG, BIG + 5)


@st.composite
def monos(draw, m, exps):
    mu = tuple(draw(st.lists(exps, min_size=m, max_size=m)))
    return mu if any(mu) else (1,) + mu[1:]


@st.composite
def writer_elements(draw):
    """Indices with their prefixes, the empty index, exponents of 128 and
    more and multiplicities of 2^40 and more, in the inverse limit or the
    least ambient that holds them."""
    ring, m = draw(st.sampled_from(WRITE_RINGS)), draw(st.integers(1, 3))
    alphas = set()
    for _ in range(draw(st.integers(0, 4))):
        mus = draw(st.lists(monos(m, wide_exps), min_size=1, max_size=3, unique=True))
        alpha = make_alpha([(mu, draw(mults)) for mu in mus])
        alphas.update(alpha[:j] for j in range(draw(st.integers(0, len(alpha) - 1)), len(alpha) + 1))
    if draw(st.booleans()):
        alphas.add(())
    weights = [sum(k for _, k in alpha) for alpha in alphas]
    n = INF if draw(st.booleans()) else max(weights, default=1) or 1
    coeffs = st.sampled_from([1, -1, 2, -3, 5]).map(ring.embed)
    if ring == QQ:
        coeffs = coeffs | st.fractions(-3, 3, max_denominator=4).filter(bool)
    return MsfElement(n, m, ring, {alpha: draw(coeffs) for alpha in alphas})


@st.composite
def writer_genpolys(draw, m=None, ring=None):
    """Symbol monomials with their prefixes and the empty one, indices and
    nu exponents of 128 and more, and exponents of 2^40 and more."""
    ring = ring or draw(st.sampled_from(WRITE_RINGS))
    m = m or draw(st.integers(1, 3))
    symmonos = set()
    for _ in range(draw(st.integers(0, 4))):
        syms = draw(st.lists(st.tuples(st.integers(1, 2) | st.integers(128, 130),
                                       monos(m, wide_exps)), min_size=1, max_size=3, unique=True))
        factors = sorted([(sym, draw(mults)) for sym in syms],
                         key=lambda t: (sum(t[0][1]), t[0][1], t[0][0]))
        symmono = tuple(factors)
        symmonos.update(symmono[:j] for j in range(draw(st.integers(0, len(symmono) - 1)),
                                                   len(symmono) + 1))
    if draw(st.booleans()):
        symmonos.add(())
    coeffs = st.sampled_from([1, -1, 3, -4]).map(ring.embed)
    return GenPoly(m, ring, {s: draw(coeffs) for s in symmonos})


@settings(max_examples=150, deadline=None)
@given(writer_elements())
def test_element_writers_match_nested_order_and_json_dumps(x):
    want = ref_element_writes(x)
    for got in three_writes(lambda: (x.sorted_terms(), x.text(), element_json_text(x))):
        assert got == want


@settings(max_examples=150, deadline=None)
@given(writer_genpolys(), st.sampled_from([None, "PASS", "FAIL"]))
def test_genpoly_writers_match_nested_order_and_json_dumps(g, check):
    want = ref_genpoly_writes(g, check)
    for got in three_writes(lambda: (g.sorted_terms(), g.text(), genpoly_json_text(g, check))):
        assert got == want


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda m: st.lists(writer_genpolys(m), max_size=5)))
def test_batched_genpoly_texts_match_nested_order(gs):
    want = [ref_genpoly_writes(g, None)[1] for g in gs]
    for got in three_writes(lambda: genpoly_texts(gs)):
        assert got == want


@pytest.mark.parametrize("ring", WRITE_RINGS)
def test_fields_that_would_carry_keep_the_nested_order(ring):
    """Totals of 128 and more take wider fields: packed at the base width,
    multidegree (300, 0) would carry past (0, 301) of a larger total."""
    one, two = ring.one, ring.embed(2)
    x = MsfElement(INF, 2, ring, {(((1, 0), 300),): one, (((0, 1), 301),): two,
                                  (((0, 1), 1), ((1, 0), BIG)): one, (((1, 0), BIG + 2),): two,
                                  (((0, 1), 2),): one, (): two})
    want = ref_element_writes(x)
    for got in three_writes(lambda: (x.sorted_terms(), x.text(), element_json_text(x))):
        assert got == want
    g = GenPoly(2, ring, {(((1, (1, 0)), 300),): one, (((1, (0, 1)), 301),): two,
                          (((1, (0, 1)), 1), ((1, (1, 0)), BIG)): one, (((2, (1, 0)), 5),): two})
    want = ref_genpoly_writes(g, None)
    for got in three_writes(lambda: (g.sorted_terms(), g.text(), genpoly_json_text(g))):
        assert got == want


# ---- the bytes sort key: fields of several bytes and long length prefixes --

LONG = 1 << 2100  # a 263-byte field: its length takes a prefix of its own
FIELD_VALUES = [0, 1, 127, 128, 255, 256, 300, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, BIG,
                (1 << 2024) - 1, 1 << 2024, (1 << 2032) - 1, 1 << 2032, (1 << 2040) - 1,
                1 << 2040, LONG, LONG + 1, 1 << 2048 * 8]


def test_key_fields_sort_as_integers_and_are_prefix_free():
    from multisym.msf import _key_field

    fields = [*map(_key_field, FIELD_VALUES)]
    assert sorted(fields) == fields
    assert len({*fields}) == len(fields)
    assert not any(a != b and b.startswith(a) for a in fields for b in fields)
    rng = random.Random("key-fields")
    tuples = [tuple(rng.choice(FIELD_VALUES) for _ in range(rng.randint(0, 4)))
              for _ in range(400)]
    joined = {t: b"".join(map(_key_field, t)) for t in tuples}
    assert sorted(tuples) == sorted(tuples, key=joined.__getitem__)


@pytest.mark.parametrize("ring", WRITE_RINGS)
def test_multibyte_fields_prefixes_and_mixed_widths_keep_the_nested_order(ring):
    """Exponents of 256 and more, multiplicities of 2^16 and more and of
    263 bytes, indices that are strict prefixes of others, and narrow and
    wide multidegrees in one element; equal multidegrees are told apart
    by those fields."""
    c = [ring.embed(k) for k in (1, -1, 2, 3, -4)]
    y1, y2, big1 = (1, 0), (0, 1), (256, 0)
    supports = [
        [(y2, 1)], [(y2, 1), (y1, 1)], [(y2, 1), (y1, 1), ((1, 1), 1)],
        [(y1, 2)], [((2, 0), 1)], [(y1, 256)], [((128, 0), 2)], [(big1, 1)],
        [(y1, 1 << 16)], [(y1, (1 << 16) + 2)], [(y1, 1 << 16), ((2, 0), 1)],
        [((257, 1), 1)], [((1, 257), 1)], [(y2, 65536), ((300, 2), 65535)],
        [(y1, 2 * LONG + 2)], [(y1, 2 * LONG), ((2, 0), 1)], [(y1, LONG)],
        [(y1, (1 << 2032) - 1)], [(y1, 1 << 2032)], []]
    x = MsfElement(INF, 2, ring, {make_alpha(s): c[k % 5] for k, s in enumerate(supports)})
    want = ref_element_writes(x)
    for got in three_writes(lambda: (x.sorted_terms(), x.text(), element_json_text(x))):
        assert got == want
    factors = [((1, y2), 1), ((1, y1), 1), ((2, y1), 1), ((1, y1), 2), ((256, y1), 1),
               ((1, big1), 1), ((1, y1), 1 << 16), ((1, y1), (1 << 16) + 2),
               ((2, y1), 1 << 15), ((1, y1), 2 * LONG), ((2, y1), LONG), ((1, (1, 257)), 1)]
    rng = random.Random(f"multibyte:{ring.to_string()}")
    symmonos = {()}
    for _ in range(60):
        picked = rng.sample(factors, rng.randint(1, 3))
        if len({sym for sym, _ in picked}) < len(picked):
            continue
        s = tuple(sorted(picked, key=lambda t: (sum(t[0][1]), t[0][1], t[0][0])))
        symmonos.update(s[:j] for j in range(1, len(s) + 1))
    g = GenPoly(2, ring, {s: c[k % 5] for k, s in enumerate(sorted(symmonos, key=repr))})
    assert len(g.terms) > 30
    want = ref_genpoly_writes(g, None)
    for got in three_writes(lambda: (g.sorted_terms(), g.text(), genpoly_json_text(g))):
        assert got == want
    assert three_writes(lambda: genpoly_texts([g, g * g.one(2, ring)])) == [[want[1]] * 2] * 3
