"""MsfElement on interned index ids.

An MsfElement stores its terms under small-int ids from one append-only
table per process, and the product kernel, the peeling recursion, the
expansion and the evaluation images are keyed by those ids.  Everything
here is checked against a tuple-keyed reference: a dict from indices to
ring elements, added and multiplied by refimpl's term-dict arithmetic
with the margin-table kernel kept in this file, peeled by the recursion
as both read when they were keyed by index tuples, expanded through the
oracle's orbit sums, and written by refimpl's writers' spec.  Ids never
leave a process: pickles and copies carry the indices, and clear_caches
keeps the table, so a cache keyed by an id can never meet a second index
under it.
"""

import copy
import importlib
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from math import comb
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multisym
from conftest import alpha_pool, run_main
from multisym.coeffring import QQ, ZZ, Zmod
from multisym.msf import (INF, MsfElement, _margin_tables, alpha_multidegree, alpha_weight,
                          element_json_text)
from multisym.oracle import orbit_sum
from multisym.polyring import NPoly
from multisym.rewrite import GenPoly, evaluate, primitive_reduce, reduce_to_monomial_es, rewrite
from refimpl import (ref_add, ref_element_writes, ref_mul, ref_pow, ref_settled,
                     ref_symmono_mul)

RINGS = [ZZ, QQ, Zmod(2), Zmod(3)]
msf_mod = importlib.import_module("multisym.msf")


# ---- the tuple-keyed reference ---------------------------------------------

def ref_alpha_product_z(alpha, beta, cap) -> dict:
    """Structure constants over Z of e_alpha * e_beta, keyed by index, in
    the order of the first table that gives each index."""
    fs, avec = zip(*alpha) if alpha else ((), ())
    gs, bvec = zip(*beta) if beta else ((), ())
    min_inner = 0 if cap is None else max(0, sum(avec) + sum(bvec) - cap)
    monos = [*fs, *gs, *[tuple(map(add, f, g)) for f in fs for g in gs]]
    degs = [*map(sum, monos)]
    out = {}
    for args in _margin_tables(avec, bvec, min_inner):
        gamma = []
        factor = 1
        last = None
        for _, mu, v in sorted([(degs[s], monos[s], v) for s, v in args]):
            if mu == last:
                t += v
                factor *= comb(t, v)
                gamma[-1] = (mu, t)
            else:
                gamma.append((mu, v))
                last, t = mu, v
        gamma = tuple(gamma)
        out[gamma] = out.get(gamma, 0) + factor
    return out


def ref_reduce_alpha(alpha) -> dict:
    """e_alpha as an integer combination of symbol monomials: the peeling
    recursion."""
    if not alpha:
        return {(): 1}
    if len(alpha) == 1:
        mu, a = alpha[0]
        return {(((a, mu), 1),): 1}
    mu_p, a_p = alpha[-1]
    rest = alpha[:-1]
    pivot = (((a_p, mu_p), 1),)
    acc = {}
    for s, c in ref_reduce_alpha(rest).items():
        key = ref_symmono_mul(s, pivot)
        acc[key] = acc.get(key, 0) + c
    prod = ref_alpha_product_z(((mu_p, a_p),), rest, None)
    assert prod.get(alpha) == 1
    for gamma, mult in prod.items():
        if gamma != alpha:
            assert alpha_weight(gamma) < alpha_weight(alpha)
            for s, c in ref_reduce_alpha(gamma).items():
                acc[s] = acc.get(s, 0) - mult * c
    return {s: v for s, v in acc.items() if v}


def kernel_times(n):
    """The product of two indices by the reference kernel, in ambient n."""
    cap = None if n is INF else n
    return lambda ka, kb: ref_alpha_product_z(ka, kb, cap)


def ref_expand_by_orbit_sums(R, n, m: int, a: dict) -> NPoly:
    """The orbit sums of the oracle: each index placed in the first slots."""
    out = NPoly.zero(n, m, R)
    for alpha, c in a.items():
        if alpha_weight(alpha) <= n:
            blocks = [mu for mu, mult in alpha for _ in range(mult)]
            blocks += [(0,) * m] * (n - len(blocks))
            out = out + orbit_sum(sum(blocks, ()), n, m, R).scale(c)
    return out


def ref_evaluate_by_kernel(R, n, m: int, g: dict) -> dict:
    """prod e_i(nu)**e over each symbol monomial, multiplied out by the
    reference kernel."""
    out, times = {}, kernel_times(n)
    for symmono, c in g.items():
        image = {(): R.one}
        for (i, nu), e in symmono:
            factor = {((nu, i),): R.one} if n is INF or i <= n else {}
            image = ref_mul(R, image, ref_pow(R, factor, e, (), times), times)
        out = ref_add(R, out, {k: R.mul(c, v) for k, v in image.items()})
    return out


# ---- strategies -------------------------------------------------------------

@st.composite
def element_pairs(draw):
    """Two tuple-keyed dicts in one ambient, zero coefficients included."""
    ring = draw(st.sampled_from(RINGS))
    n = draw(st.sampled_from([INF, 1, 2, 3]))
    m = draw(st.integers(1, 3))
    # deep plethysms at m = 1 reach the peeling's pivot
    pool = alpha_pool(n, m, 8 if m == 1 else 3)
    sides = [{alpha: ring.embed(draw(st.integers(-3, 3)))
              for alpha in draw(st.lists(st.sampled_from(pool), max_size=4))}
             for _ in range(2)]
    return ring, n, m, sides[0], sides[1]


# ---- tests ------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(element_pairs(), st.integers(0, 3), st.integers(0, 4))
def test_element_operations_match_the_tuple_reference(pair, k, bound):
    R, n, m, a, b = pair
    x, y = MsfElement(n, m, R, a), MsfElement(n, m, R, b)
    a, b = ref_settled(R, a), ref_settled(R, b)
    assert x.terms == a and dict(x.terms.items()) == a and len(x.terms) == len(a)
    for alpha, c in a.items():
        assert x.terms[alpha] == c and alpha in x.terms
    assert dict((x + y).terms.items()) == ref_add(R, a, b)
    assert dict((x * y).terms.items()) == ref_mul(R, a, b, kernel_times(n))
    assert dict((x ** k).terms.items()) == ref_pow(R, a, k, (), kernel_times(n))
    assert (x == y) is (a == b)
    assert x * y == y * x == MsfElement(n, m, R, ref_mul(R, a, b, kernel_times(n)))
    for target in (INF, 1, 2, 3):
        if n is INF or (target is not INF and target <= n):
            assert dict(x.truncate(target).terms.items()) == {
                al: c for al, c in a.items() if target is INF or alpha_weight(al) <= target}
    assert dict(x.total_degree_cut(bound).terms.items()) == {
        al: c for al, c in a.items() if sum(alpha_multidegree(al, m)) <= bound}
    for deg in {alpha_multidegree(al, m) for al in a} | {(1,) * m}:
        assert dict(x.multidegree_component(deg).terms.items()) == {
            al: c for al, c in a.items() if alpha_multidegree(al, m) == deg}
    if n is not INF:
        assert x.expand() == ref_expand_by_orbit_sums(R, n, m, a)
    terms, text, json_text = ref_element_writes(x)
    assert x.text() == text
    assert element_json_text(x) == json_text
    assert x.sorted_terms() == terms


@settings(max_examples=60, deadline=None)
@given(element_pairs())
def test_rewrite_and_evaluate_match_the_tuple_reference(pair):
    R, n, m, a, _ = pair
    x = MsfElement(n, m, R, a)
    first = {}
    for alpha, c in ref_settled(R, a).items():
        for s, v in ref_reduce_alpha(alpha).items():
            first[s] = R.add(first.get(s, R.zero), R.mul(c, R.embed(v)))
    first = ref_settled(R, first)
    assert dict(reduce_to_monomial_es(x).terms.items()) == first
    g = rewrite(x)
    assert g == primitive_reduce(GenPoly(m, R, first), n)
    back = evaluate(g, n)
    assert dict(back.terms.items()) == ref_evaluate_by_kernel(R, n, m, dict(g.terms.items()))
    if n is INF:
        assert back == x
    else:
        assert back.expand() == x.expand()


def sample_elements() -> list:
    y1, y2, y12 = (1, 0), (0, 1), (1, 1)
    terms = {((y1, 2),): 3, ((y2, 1), (y12, 1)): -1, (): 2, ((y12, 3),): 5}
    x = MsfElement(INF, 2, ZZ, terms)
    return [x, x * x, MsfElement(INF, 2, QQ, {a: Fraction(c, 7) for a, c in terms.items()}),
            x.truncate(3), (x * x).truncate(2), MsfElement.zero(4, 2, Zmod(5)),
            MsfElement.one(2, 1, Zmod(7)), MsfElement(2, 1, ZZ, {(((4,), 2),): 9})]


@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)),
                                   copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_pickle_and_copies_round_trip(clone):
    for x in sample_elements():
        y = clone(x)
        assert type(y) is MsfElement and y == x
        assert (y.n, y.m, y.ring) == (x.n, x.m, x.ring)
        # INF is told apart by identity
        assert (y.n is INF) == (x.n is INF)
        assert dict(y.terms.items()) == dict(x.terms.items())
        assert element_json_text(y) == element_json_text(x)
        assert (y * y).text() == (x * x).text()
        if x.n is not INF:
            assert y.expand() == x.expand()


def test_unpickled_in_a_process_with_other_ids():
    """Ids are local to a process: a pickle read where the table holds other
    indices first, at other ids, still has the same terms and bytes."""
    xs = sample_elements()
    script = (
        "import pickle, sys\n"
        "from multisym.msf import INF, e_alpha, element_json_text\n"
        "from multisym.coeffring import ZZ\n"
        "(e_alpha([((3, 1), 2), ((1, 2), 2)], INF, 2, ZZ) ** 2).text()  # interns other indices\n"
        "for x in pickle.load(sys.stdin.buffer):\n"
        "    print(sorted(x.terms.items(), key=repr))\n"
        "    print(element_json_text(x), x.n is INF)\n")
    src = os.path.dirname(multisym.__path__[0])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(xs),
                          capture_output=True, env=env, check=True)
    want = "".join(f"{sorted(x.terms.items(), key=repr)}\n{element_json_text(x)} {x.n is INF}\n"
                   for x in xs)
    assert done.stdout.decode() == want


def test_product_and_rewrite_bytes_survive_clear_caches(tmp_path):
    x = tmp_path / "x.json"
    x.write_text(element_json_text(sample_elements()[0]), encoding="utf-8")
    args = [["product", str(x), str(x)], ["rewrite", "--check", str(x)],
            ["verify", "--n", "2", "--m", "2", "--max-total-degree", "3"]]
    before = [run_main(a) for a in args]
    size = len(msf_mod._ALPHAS)
    table = list(msf_mod._ALPHAS)
    multisym.clear_caches()
    # the table is kept: every id still names the index it named
    assert msf_mod._ALPHAS[:size] == table
    assert all(msf_mod._ALPHA_IDS[alpha] == k for k, alpha in enumerate(table))
    assert [run_main(a) for a in args] == before
    assert all(code == 0 for code, _, _ in before)
