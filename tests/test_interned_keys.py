"""GenPoly on interned symbol-monomial ids.

A GenPoly stores its terms under small-int ids from one append-only
table per process, and rewrite's cached integer images are keyed by
those ids.  Everything here is checked against a tuple-keyed reference:
a dict from symbol monomials to ring elements, added and multiplied by
refimpl's term-dict arithmetic with the sorted merge of symbol
monomials, a peeling recursion kept in this file, and refimpl's
evaluate.  Ids never leave a process: pickles and copies carry the
symbol monomials, and clear_caches keeps the table, so a cache keyed by
an id can never meet a second monomial under it.
"""

import copy
import importlib
import itertools
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multisym
from conftest import alpha_pool, run_main
from multisym.coeffring import QQ, ZZ, Zmod
from multisym.monomial import grlex_key, primitive_decompose
from multisym.msf import _ALPHAS, INF, MsfElement, _alpha_product_z, _intern_alpha, e_alpha
from multisym.rewrite import GenPoly, evaluate, genpoly_json_text, plethysm_P, rewrite
from refimpl import (ref_add, ref_evaluate, ref_mul, ref_pow, ref_settled, ref_symmono_mul,
                     ref_symmono_times)

RINGS = [ZZ, QQ, Zmod(2), Zmod(3)]
rewrite_mod = importlib.import_module("multisym.rewrite")


# ---- the tuple-keyed reference ---------------------------------------------

@cache
def ref_peel(alpha) -> tuple:
    """e_alpha in the symbols e_i(mu), over Z: the peeling recursion."""
    if len(alpha) <= 1:
        return tuple({tuple([((a, mu), 1) for mu, a in alpha]): 1}.items())
    (mu, a), rest = alpha[-1], alpha[:-1]
    acc = ref_mul(ZZ, dict(ref_peel(rest)), {(((a, mu), 1),): 1}, ref_symmono_times)
    for k, mult in _alpha_product_z(_intern_alpha(((mu, a),)), _intern_alpha(rest), None):
        if _ALPHAS[k] != alpha:
            acc = ref_add(ZZ, acc, {s: -mult * c for s, c in ref_peel(_ALPHAS[k])})
    return tuple(acc.items())


@cache
def ref_primitive_symbol(sym, n) -> tuple:
    """e_i(nu^k) as P_{i,k} at E[j;(1)] -> E[j;nu], over Z in ambient n."""
    i, mu = sym
    nu, k = primitive_decompose(mu)
    if n is not INF and i > n:
        return ()
    p = {(((i, nu), 1),): 1} if k == 1 else {
        tuple([((j, nu), e) for (j, _), e in symmono]): c
        for symmono, c in plethysm_P(i, k).terms.items()}
    return tuple((s, c) for s, c in p.items() if n is INF or s[-1][0][0] <= n)


def ref_rewrite(x: MsfElement) -> dict:
    R, out = x.ring, {}
    for alpha, c in x.terms.items():
        for symmono, v in ref_peel(alpha):
            image = {(): R.one}
            for sym, e in symmono:
                p = {s: R.embed(w) for s, w in ref_primitive_symbol(sym, x.n)}
                image = ref_mul(R, image, ref_pow(R, p, e, (), ref_symmono_times),
                                ref_symmono_times)
            out = ref_add(R, out, {k: R.mul(R.mul(c, R.embed(v)), w) for k, w in image.items()})
    return out


# ---- strategies -------------------------------------------------------------

@st.composite
def tuple_terms(draw, ring, m: int) -> dict:
    """Canonical symbol monomials, zero coefficients and the constant term
    included, as a tuple-keyed dict of ring elements."""
    nus = [nu for nu in itertools.product(range(3), repeat=m) if 0 < sum(nu) <= 2]
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        syms = {}
        for _ in range(draw(st.integers(0, 3))):
            sym = (draw(st.integers(1, 3)), draw(st.sampled_from(nus)))
            syms[sym] = syms.get(sym, 0) + draw(st.integers(1, 2))
        symmono = tuple(sorted(syms.items(), key=lambda t: (grlex_key(t[0][1]), t[0][0])))
        terms[symmono] = ring.embed(draw(st.integers(-3, 3)))
    return terms


@st.composite
def genpoly_pairs(draw):
    ring = draw(st.sampled_from(RINGS))
    m = draw(st.integers(1, 2))
    a, b = draw(tuple_terms(ring, m)), draw(tuple_terms(ring, m))
    return ring, m, a, b


# ---- tests ------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(genpoly_pairs(), st.integers(0, 3), st.sampled_from([1, 2, INF]))
def test_arithmetic_and_evaluate_match_the_tuple_reference(pair, k, n):
    R, m, a, b = pair
    ga, gb = GenPoly(m, R, a), GenPoly(m, R, b)
    a, b = ref_settled(R, a), ref_settled(R, b)
    assert ga.terms == a and dict(ga.terms.items()) == a and len(ga.terms) == len(a)
    assert dict((ga + gb).terms.items()) == ref_add(R, a, b)
    assert dict((ga * gb).terms.items()) == ref_mul(R, a, b, ref_symmono_times)
    assert dict((ga ** k).terms.items()) == ref_pow(R, a, k, (), ref_symmono_times)
    assert (ga == gb) is (a == b)
    assert ga * gb == gb * ga == GenPoly(m, R, ref_mul(R, a, b, ref_symmono_times))
    assert evaluate(ga, n) == ref_evaluate(ga, n)
    for symmono, c in a.items():
        assert ga.terms[symmono] == c and symmono in ga.terms
    assert (((4, (1,) * m), 9),) not in ga.terms


def test_pair_table_holds_the_reference_products():
    """Every entry of the pair table, filled by products, the peeling
    recursion and the primitive forms, names the product of its two ids'
    symbol monomials; an emptied table refills to the same products."""
    multisym.clear_caches()
    x = e_alpha([((1, 0), 2), ((1, 1), 1), ((0, 2), 1)], INF, 2, ZZ)
    g = rewrite(x)
    h = g * g + g ** 3
    table = rewrite_mod._id_products()
    assert sum(map(len, table.values())) > 20
    symmono = rewrite_mod._SYMMONOS.__getitem__
    for ka, row in table.items():
        for kb, k in row.items():
            assert symmono(k) == ref_symmono_mul(symmono(ka), symmono(kb))
    multisym.clear_caches()
    assert not rewrite_mod._id_products()
    assert rewrite(x) == g and g * g + g ** 3 == h


@pytest.mark.parametrize("R", [ZZ, Zmod(3)])
def test_products_keep_the_zero_sums_that_mul_drops(R):
    """(a + b) * (a - b): the raw sum at ab is 1 - 1 = 0 over Z and 1 + 2 = 3
    over Z/3, which stores -1 as 2.  _products keeps it and GenPoly.__mul__
    settles it away; every pair it met is in the pair table, naming the
    reference product."""
    multisym.clear_caches()
    a, b = GenPoly.symbol(1, (1,), 1, R), GenPoly.symbol(2, (1,), 1, R)
    x, y = a + b, a - b
    raw = rewrite_mod._products(x._d, y._d)
    ab = (((1, (1,)), 1), ((2, (1,)), 1))
    k = rewrite_mod._IDS[ab]
    assert raw[k] == (0 if R is ZZ else 3)
    assert ab not in (x * y).terms
    assert (x * y)._d == R.settle(raw, 1)
    symmono = rewrite_mod._SYMMONOS.__getitem__
    table = rewrite_mod._id_products()
    assert sorted((ka, kb) for ka, row in table.items() for kb in row) == sorted(
        itertools.product(x._d, y._d))
    for ka, row in table.items():
        for kb, k in row.items():
            assert symmono(k) == ref_symmono_mul(symmono(ka), symmono(kb))


@st.composite
def elements(draw):
    ring = draw(st.sampled_from(RINGS))
    n = draw(st.sampled_from([INF, 2, 3]))
    m = draw(st.integers(1, 2))
    terms = {alpha: ring.embed(draw(st.integers(-3, 3)))
             for alpha in draw(st.lists(st.sampled_from(alpha_pool(n, m, 4)), max_size=4))}
    return MsfElement(n, m, ring, terms)


@settings(max_examples=60, deadline=None)
@given(elements())
def test_rewrite_matches_the_tuple_reference(x):
    g = rewrite(x)
    assert dict(g.terms.items()) == ref_rewrite(x)
    assert evaluate(g, x.n) == x


def sample_genpolys() -> list:
    x = e_alpha([((1, 0), 2), ((1, 1), 1)], INF, 2, ZZ) + e_alpha([((2, 0), 2)], INF, 2, ZZ)
    g = rewrite(x)
    return [g, rewrite(MsfElement(INF, 2, QQ, {a: Fraction(c, 3) for a, c in x.terms.items()})),
            g.scale(5) - GenPoly.one(2, ZZ), GenPoly.zero(2, Zmod(7)),
            GenPoly.const(4, 1, Zmod(7)), plethysm_P(3, 2)]


@pytest.mark.parametrize("clone", [lambda g: pickle.loads(pickle.dumps(g)),
                                   copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_pickle_and_copies_round_trip(clone):
    for g in sample_genpolys():
        h = clone(g)
        assert type(h) is GenPoly and h == g
        assert (h.m, h.ring) == (g.m, g.ring)
        assert dict(h.terms.items()) == dict(g.terms.items())
        assert genpoly_json_text(h) == genpoly_json_text(g)
        assert (h * h).text() == (g * g).text()


def test_unpickled_in_a_process_with_other_ids():
    """Ids are local to a process: a pickle read where the table holds other
    monomials first, at other ids, still has the same terms and bytes."""
    gs = sample_genpolys()
    script = (
        "import pickle, sys\n"
        "from multisym.msf import INF, e_alpha\n"
        "from multisym.coeffring import ZZ\n"
        "from multisym.rewrite import genpoly_json_text, rewrite\n"
        "rewrite(e_alpha([((3, 1), 2), ((1, 2), 2)], INF, 2, ZZ))  # interns other monomials\n"
        "for g in pickle.load(sys.stdin.buffer):\n"
        "    print(sorted(g.terms.items(), key=repr))\n"
        "    print(genpoly_json_text(g))\n")
    src = os.path.dirname(multisym.__path__[0])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(gs),
                          capture_output=True, env=env, check=True)
    want = "".join(f"{sorted(g.terms.items(), key=repr)}\n{genpoly_json_text(g)}\n" for g in gs)
    assert done.stdout.decode() == want


def test_rewrite_bytes_survive_clear_caches():
    args = [["relations", "--n", "2", "--m", "1", "--max-degree", "8"],
            ["relations", "--n", "2", "--m", "2", "--max-degree", "2,2", "--ring", "Q"]]
    before = [run_main(a) for a in args]
    size = len(rewrite_mod._SYMMONOS)
    table = list(rewrite_mod._SYMMONOS)
    multisym.clear_caches()
    # the table is kept: every id still names the monomial it named
    assert rewrite_mod._SYMMONOS[:size] == table
    assert all(rewrite_mod._IDS[s] == k for k, s in enumerate(table))
    assert [run_main(a) for a in args] == before
    assert all(code == 0 for code, _, _ in before)
