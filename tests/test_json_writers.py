"""The one-pass JSON writers equal json.dumps of the dict forms.

element_json_text, genpoly_json_text and the CLI's expansion writer build
canonical JSON (sorted keys, no spaces) directly from the sorted terms.
The dict builders below are the reference: each text must equal
json.dumps(reference, sort_keys=True, separators=(",", ":")), over Z, Q
(negative and integer-valued fractions) and Z/p, in finite and infinite
ambients, for empty elements and for constant terms.
"""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import alpha_pool
from multisym import cli
from multisym.cli import main
from multisym.coeffring import QQ, ZZ, Zmod
from multisym.monomial import grlex_key
from multisym.msf import (INF, MsfElement, e_alpha, element_json_text,
                          element_to_json)
from multisym.rewrite import (GenPoly, evaluate, genpoly_json_text,
                              genpoly_to_json, rewrite)

RINGS = [ZZ, QQ, Zmod(2), Zmod(7), Zmod(1000003)]


def canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def ref_element(x: MsfElement) -> dict:
    return {
        "n": "inf" if x.n is INF else x.n,
        "m": x.m,
        "ring": x.ring.to_string(),
        "terms": [{"alpha": [{"mono": list(mu), "mult": k} for mu, k in alpha],
                   "coeff": x.ring.format_coeff(c)}
                  for alpha, c in x.sorted_terms()],
    }


def ref_genpoly(g: GenPoly, check=None) -> dict:
    d = {
        "m": g.m,
        "ring": g.ring.to_string(),
        "terms": [{"symbols": [{"i": i, "nu": list(nu), "exp": e}
                               for (i, nu), e in symmono],
                   "coeff": g.ring.format_coeff(c)}
                  for symmono, c in g.sorted_terms()],
    }
    if check is not None:
        d["check"] = check
    return d


def ref_npoly(p) -> dict:
    return {"n": p.n, "m": p.m, "ring": p.ring.to_string(),
            "terms": [{"exps": list(mono), "coeff": p.ring.format_coeff(c)}
                      for mono, c in p.sorted_terms()]}


@st.composite
def coeffs(draw, ring):
    if ring == QQ:
        # numerators and denominators chosen so that negative, reducible
        # and integer-valued fractions all occur
        return Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 12)))
    return ring.embed(draw(st.integers(-10**6, 10**6)))


@st.composite
def elements(draw):
    ring = draw(st.sampled_from(RINGS))
    n = draw(st.sampled_from([INF, 1, 2, 3]))
    m = draw(st.integers(1, 3))
    pool = alpha_pool(n, m, 3)
    terms = {}
    for alpha in draw(st.lists(st.sampled_from(pool), max_size=6)):
        terms[alpha] = draw(coeffs(ring))
    return MsfElement(n, m, ring, terms)


@st.composite
def genpolys(draw):
    ring = draw(st.sampled_from(RINGS))
    m = draw(st.integers(1, 3))
    nus = [nu for nu in itertools.product(range(3), repeat=m) if 0 < sum(nu) <= 2]
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        syms = {}
        # zero symbols is the constant term
        for _ in range(draw(st.integers(0, 3))):
            sym = (draw(st.integers(1, 3)), draw(st.sampled_from(nus)))
            syms[sym] = syms.get(sym, 0) + draw(st.integers(1, 3))
        symmono = tuple(sorted(syms.items(), key=lambda t: (grlex_key(t[0][1]), t[0][0])))
        terms[symmono] = draw(coeffs(ring))
    return GenPoly(m, ring, terms)


@settings(max_examples=150, deadline=None)
@given(elements())
def test_element_text_equals_dumps_of_dict_form(x):
    ref = ref_element(x)
    assert element_json_text(x) == canon(ref)
    assert element_to_json(x) == ref


@settings(max_examples=150, deadline=None)
@given(genpolys(), st.sampled_from([None, "PASS", "FAIL"]))
def test_genpoly_text_equals_dumps_of_dict_form(g, check):
    assert genpoly_json_text(g, check) == canon(ref_genpoly(g, check))
    assert genpoly_to_json(g) == ref_genpoly(g)


@settings(max_examples=60, deadline=None)
@given(elements())
def test_expansion_text_equals_dumps_of_dict_form(x):
    if x.n is INF:
        return
    p = x.expand()
    assert cli._npoly_json_text(p) == canon(ref_npoly(p))


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("n", [INF, 2])
def test_empty_element_and_constant_terms(ring, n):
    zero = MsfElement.zero(n, 2, ring)
    assert element_json_text(zero) == canon(ref_element(zero))
    assert '"terms":[]' in element_json_text(zero)
    c = MsfElement(n, 2, ring, {(): ring.embed(-5)})
    assert element_json_text(c) == canon(ref_element(c))
    assert '"alpha":[]' in element_json_text(c)
    g0 = GenPoly.zero(2, ring)
    g = GenPoly(2, ring, {(): ring.embed(-3), ((((1, (1, 0)), 2),)): ring.one})
    for h in (g0, g):
        for check in (None, "PASS"):
            assert genpoly_json_text(h, check) == canon(ref_genpoly(h, check))
    assert genpoly_json_text(g).count('"symbols":[]') == 1


def test_integer_valued_and_negative_fractions_are_written_reduced():
    x = MsfElement(INF, 1, QQ, {(((1,), 1),): Fraction(6, 3),
                                (((2,), 1),): Fraction(-4, 6)})
    text = element_json_text(x)
    assert '"coeff":"2"' in text and '"coeff":"-2/3"' in text
    assert text == canon(ref_element(x))


def _write(tmp_path, name, x):
    p = tmp_path / name
    p.write_text(canon(ref_element(x)))
    return str(p)


def _q_element(n):
    return (e_alpha([((1, 0), 1)], n, 2, QQ).scale(Fraction(-3, 7))
            + e_alpha([((0, 1), 2)], n, 2, QQ).scale(Fraction(6, 3))
            + MsfElement.one(n, 2, QQ).scale(Fraction(1, 2)))


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(5)])
def test_cli_outputs_equal_dumps_of_dict_forms(tmp_path, capsys, ring):
    x = _q_element(INF)
    if ring != QQ:
        x = MsfElement(INF, 2, ring, {a: ring.embed(c.numerator) for a, c in x.terms.items()})
    xf = x.truncate(2)
    px, pf = _write(tmp_path, "x.json", x), _write(tmp_path, "f.json", xf)

    assert main(["product", px, px]) == 0
    assert capsys.readouterr().out == canon(ref_element(x * x)) + "\n"

    assert main(["rewrite", "--check", px]) == 0
    out = capsys.readouterr().out
    assert out == canon(ref_genpoly(rewrite(x), "PASS")) + "\n"
    assert json.loads(out)["check"] == "PASS"
    assert evaluate(rewrite(x), INF) == x

    assert main(["rewrite", pf]) == 0
    assert capsys.readouterr().out == canon(ref_genpoly(rewrite(xf))) + "\n"

    assert main(["expand", pf]) == 0
    assert capsys.readouterr().out == canon(ref_npoly(xf.expand())) + "\n"
