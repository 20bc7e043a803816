"""The one-pass sort keys order terms exactly as the nested keys did.

MsfElement.sorted_terms and GenPoly.sorted_terms fix the order of every
printed and serialized term, so the byte-pinned outputs depend on it.
"""

import random

import pytest

from conftest import random_element, seeded
from multisym.coeffring import QQ, ZZ
from multisym.msf import INF, MsfElement, alpha_multidegree, alphas_of_multidegree
from multisym.rewrite import rewrite


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
