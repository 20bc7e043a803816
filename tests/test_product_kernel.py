"""The orbit-sum product kernel against a naive margin-table reference.

_alpha_product_z enumerates the margin tables once per multiplicity shape
and, per index pair, sorts each table's arguments by grlex and merges the
equal monomials next to each other.  The reference below enumerates the
tables for every pair and merges each one through a dict, as the product
rule is stated.  Both must give the same dict, key order included, on
random pairs and on pairs built so that argument monomials coincide in
every way the rule allows.  The kernel speaks interned index ids;
product_z below interns its arguments and decodes its result.
"""

import random

import pytest

from conftest import seeded
from multisym.monomial import mono_mul
from multisym.msf import _ALPHAS, _alpha_product_z, _intern_alpha, make_alpha
from refimpl import _merge_int


def product_z(alpha, beta, cap) -> dict:
    """The kernel's structure constants of an index pair, keyed by index."""
    return {_ALPHAS[k]: v
            for k, v in _alpha_product_z(_intern_alpha(alpha), _intern_alpha(beta), cap)}


def naive_inner_tables(avec, bvec):
    """k x h tables with row sums <= avec and column sums <= bvec, in
    row-major lexicographic order."""
    k, h = len(avec), len(bvec)
    out = []

    def rec(pos, cells):
        if pos == k * h:
            out.append(tuple(cells))
            return
        i, j = divmod(pos, h)
        row = sum(cells[i * h:])
        col = sum(cells[t * h + j] for t in range(i))
        for v in range(min(avec[i] - row, bvec[j] - col) + 1):
            rec(pos + 1, cells + [v])

    rec(0, [])
    return out


def naive_terms(alpha, beta):
    """(inner total, gamma, multinomial factor) for every table, in order."""
    fs = [mu for mu, _ in alpha]
    gs = [mu for mu, _ in beta]
    avec = [mult for _, mult in alpha]
    bvec = [mult for _, mult in beta]
    k, h = len(avec), len(bvec)
    out = []
    for inner in naive_inner_tables(avec, bvec):
        args = []
        for i, fi in enumerate(fs):
            row = inner[i * h:(i + 1) * h]
            args.append((fi, avec[i] - sum(row)))
            args += [(mono_mul(fi, gs[j]), v) for j, v in enumerate(row)]
        for j, gj in enumerate(gs):
            args.append((gj, bvec[j] - sum(inner[i * h + j] for i in range(k))))
        out.append((sum(inner),) + _merge_int(args))
    return out


def naive_product(terms, weight, cap):
    """Structure constants from the tables that survive the cap: a table
    with inner total t gives an index of weight `weight` - t."""
    out = {}
    for total, gamma, mult in terms:
        if cap is None or weight - total <= cap:
            out[gamma] = out.get(gamma, 0) + mult
    return out


def random_mono(rng: random.Random, m: int, top: int = 2):
    while True:
        mu = tuple(rng.randint(0, top) for _ in range(m))
        if any(mu):
            return mu


def random_index(rng: random.Random, m: int, weight: int, extra=()):
    """An index of the given weight whose support starts with `extra`."""
    support = list(dict.fromkeys(extra))
    while len(support) < weight and (not support or rng.random() < 0.7):
        mu = random_mono(rng, m)
        if mu not in support:
            support.append(mu)
    support = support[:weight]
    mults = [1] * len(support)
    for _ in range(weight - len(support)):
        mults[rng.randrange(len(mults))] += 1
    return make_alpha(zip(support, mults))


def sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def coincident_pair(rng: random.Random, m: int, kind: str):
    """An index pair with a forced coincidence among argument monomials."""
    f, fk, g = random_mono(rng, m), random_mono(rng, m), random_mono(rng, m)
    if kind == "f=g":  # f_i = g_j
        alpha_sup, beta_sup = [f, fk], [f, g]
    elif kind == "fg=fg":  # f_i*g_j = f_k*g_l, so g_l = f_i*g_j/f_k
        big = mono_mul(f, fk)
        gl = sub(mono_mul(big, g), fk)
        alpha_sup, beta_sup = [big, fk], [g, gl]
    else:  # f_i = f_k*g_l
        alpha_sup, beta_sup = [mono_mul(fk, g), fk], [g, f]
    wa = rng.randint(len(set(alpha_sup)), 5)
    wb = rng.randint(len(set(beta_sup)), 5)
    return (random_index(rng, m, wa, alpha_sup),
            random_index(rng, m, wb, beta_sup))


def check(alpha, beta):
    weight = sum(t for _, t in alpha) + sum(t for _, t in beta)
    terms = naive_terms(alpha, beta)
    for cap in [None] + list(range(1, weight + 1)):
        got = product_z(alpha, beta, cap)
        want = naive_product(terms, weight, cap)
        assert got == want, (alpha, beta, cap)
        assert list(got) == list(want), (alpha, beta, cap)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_kernel_matches_naive_tables_on_random_pairs(m):
    rng = seeded(f"kernel:random:{m}")
    for _ in range(40):
        alpha = random_index(rng, m, rng.randint(0, 5))
        beta = random_index(rng, m, rng.randint(0, 5))
        check(alpha, beta)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind", ["f=g", "fg=fg", "f=fg"])
def test_kernel_matches_naive_tables_with_coincidences(m, kind):
    rng = seeded(f"kernel:{kind}:{m}")
    for _ in range(15):
        alpha, beta = coincident_pair(rng, m, kind)
        check(alpha, beta)
        check(beta, alpha)


def test_kernel_on_the_empty_index():
    one = make_alpha([])
    x = make_alpha([((1, 0), 2), ((0, 1), 1)])
    for a, b in [(one, one), (one, x), (x, one)]:
        check(a, b)
    assert product_z(one, one, None) == {(): 1}
    assert product_z(one, x, 2) == {}


def test_coincidence_pairs_do_coincide():
    """The constructed pairs really exercise the merge of equal arguments."""
    for m in (1, 2, 3):
        for kind in ("f=g", "fg=fg", "f=fg"):
            rng = seeded(f"kernel:{kind}:{m}")
            merged = 0
            for _ in range(15):
                alpha, beta = coincident_pair(rng, m, kind)
                fs = [mu for mu, _ in alpha]
                gs = [mu for mu, _ in beta]
                slots = fs + gs + [mono_mul(f, g) for f in fs for g in gs]
                merged += len(set(slots)) < len(slots)
            assert merged == 15, (m, kind)
