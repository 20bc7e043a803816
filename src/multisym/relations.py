"""Defining relations of the n-slot invariant ring.

Per multidegree a the kernel of the limit ring onto the n-slot ring is
spanned by the basis symbols of weight above n.  Rewriting such a symbol
into the free generators (in the no-cutoff ambient) yields a polynomial
identity that must evaluate to zero once the cutoff is applied: a defining
relation.  Over the rationals the single symbol family e_{n+1}(f) generates
the relation ideal, and the free e_1 alphabet makes those generators
explicit.

Vanishing is checked along two independent routes: evaluate (the abstract
product, through rewrite) and genpoly_expand, which multiplies concrete
orbit-sum polynomials in the n-slot ring and shares no code with rewrite
or the orbit-sum product.  genpoly_expand keeps its own cache of integer
images: the full expansion over Z of each generator monomial, keyed by the
monomial and the ambient (n, m) but never by a coefficient ring.  The ring
enters last: the coefficients are lifted to integer numerators over one
denominator (Ring.lift), npoly_sum adds numerator times image into one dict
of ints and settles each sum into the ring once (Ring.settle).
"""

from __future__ import annotations

import random
from functools import cache

from .coeffring import QQ, ZZ, Ring, Zmod
from .linalg import RankTracker, rank_of
from .monomial import Mono, mono_pow, monomials_of_total_degree, monomials_up_to
from .msf import INF, alpha_weight, alphas_of_multidegree, e_alpha, ek_of_f
from .polyring import NPoly, npoly_sum
from .rewrite import GenPoly, e_in_powersums, evaluate, rewrite

__all__ = [
    "kernel_basis",
    "relation_items",
    "relation_polys",
    "genpoly_expand",
    "verify_relation",
    "char_zero_ideal_gens",
    "genpoly_to_e1",
    "coverage_rank",
    "multidegrees_upto",
]


def kernel_basis(n: int, m: int, a: Mono) -> list:
    """All indices of multidegree a and weight above n."""
    return [al for al in alphas_of_multidegree(m, a) if alpha_weight(al) > n]


def multidegrees_upto(max_a: Mono) -> list:
    """Componentwise bounded multidegrees, ordered by total then entries."""
    return [(0,) * len(max_a)] + monomials_up_to(len(max_a), max_a)


def relation_items(n: int, m: int, max_a: Mono, ring: Ring) -> list:
    """(multidegree, index, relation) triples in deterministic order.

    Each relation is the rewrite of the dead basis symbol in the no-cutoff
    ambient, so it is a nonzero polynomial in the free generators that
    evaluates to zero in the n-slot ring.
    """
    if len(max_a) != m:
        raise ValueError("bound length must equal m")
    items = []
    for a in multidegrees_upto(max_a):
        for alpha in kernel_basis(n, m, a):
            x = e_alpha(alpha, INF, m, ring)
            items.append((a, alpha, rewrite(x)))
    return items


def relation_polys(n: int, m: int, max_a: Mono, ring: Ring) -> list:
    return [g for _, _, g in relation_items(n, m, max_a, ring)]


@cache
def _expansion_z(symmono, n: int, m: int) -> NPoly:
    """prod e_i(nu)**e over a symbol monomial, expanded over Z in n slots."""
    if not symmono:
        return NPoly.one(n, m, ZZ)
    if len(symmono) > 1:
        return _expansion_z(symmono[:-1], n, m) * _expansion_z(symmono[-1:], n, m)
    ((i, nu), e), = symmono
    if i > n:  # e_i(nu) vanishes
        return NPoly.zero(n, m, ZZ)
    return e_alpha([(nu, i)], n, m, ZZ).expand() ** e


def genpoly_expand(g: GenPoly, n: int) -> NPoly:
    """Expand a generator polynomial in the concrete n-slot ring.

    Goes straight from symbols to orbit-sum polynomials and multiplies
    there, bypassing the abstract product: an independent route used to
    double-check vanishing.
    """
    m = g.m
    if n < 1:
        raise ValueError("need n >= 1")
    cs, den = g.ring.lift(g.terms)
    return npoly_sum(((c, _expansion_z(symmono, n, m)) for symmono, c in cs.items()),
                     n, m, g.ring, den)


def verify_relation(g: GenPoly, n: int) -> bool:
    """Vanishing along both routes: abstract evaluation and full expansion."""
    if not evaluate(g, n).is_zero:
        return False
    return genpoly_expand(g, n).is_zero


def char_zero_ideal_gens(n: int, m: int, bound: int) -> list:
    """Rational ideal generators: e_{n+1}(f_d) for f_d the sum of all
    monomials of total degree up to d, d = 1..bound, cut to total
    multidegree <= bound and written in the free e_1 alphabet.

    Empty when bound < n+1, since every coefficient of e_{n+1}(f) has
    total degree at least n+1.
    """
    out = []
    for d in range(1, bound + 1):
        terms = {}
        for t in range(1, d + 1):
            for mu in monomials_of_total_degree(m, t):
                terms[mu] = QQ.one
        f = NPoly(1, m, QQ, terms)
        el = ek_of_f(f, n + 1, INF).total_degree_cut(bound)
        if el.is_zero:
            continue
        g = genpoly_to_e1(rewrite(el))
        if not any(g == seen for seen in out):
            out.append(g)
    return out


def _e1_image(i: int, nu: Mono, m: int, R: Ring) -> GenPoly:
    """e_i on the alphabet of nu-values in the E[1;nu^r]: e_in_powersums(i)
    with p_r -> E[1;nu^r], each Fraction embedded as numerator times the
    inverse of the denominator (ZeroDivisionError over Z/p with p <= i)."""
    terms = {}
    for part, c in e_in_powersums(i).items():
        # part descends, and E[1;nu^r] ascends with r in the symbol order
        symmono = tuple([((1, mono_pow(nu, r)), part.count(r)) for r in sorted(set(part))])
        v = R.mul(R.embed(c.numerator), R.inv(R.embed(c.denominator)))
        if not R.is_zero(v):
            terms[symmono] = v
    return GenPoly._make(m, R, terms)


def genpoly_to_e1(g: GenPoly) -> GenPoly:
    """Re-express every symbol in e_1 symbols; needs division in the ring."""
    R = g.ring
    if not R.has_division:
        raise ValueError("the e_1 alphabet conversion needs a field")
    m = g.m
    memo: dict[tuple, GenPoly] = {}
    total = GenPoly.zero(m, R)
    for symmono, c in g.terms.items():
        term = GenPoly.const(c, m, R)
        for (i, nu), e in symmono:
            if (i, nu) not in memo:
                memo[(i, nu)] = _e1_image(i, nu, m, R)
            term = term * (memo[(i, nu)] ** e)
        total = total + term
    return total


def coverage_rank(n: int, m: int, a: Mono):
    """(achieved rank, kernel dimension) in multidegree a over the rationals.

    Rows are the coefficient patterns of e_{n+k}(f) for deterministic
    pseudo-random integer f, k running over every weight the kernel
    contains.  Certified with a big-prime rank first, exact rational
    fallback if that comes up short.
    """
    kernel = kernel_basis(n, m, a)
    dim = len(kernel)
    if dim == 0:
        return 0, 0
    by_weight = {}
    for alpha in kernel:
        by_weight.setdefault(alpha_weight(alpha), []).append(alpha)
    monos = monomials_up_to(m, a)
    rng = random.Random(f"coverage:{n}:{m}:{a}")
    Fp = Zmod(1000003)

    # A row coming from e_{n+k}(f) is supported on indices of weight n+k
    # only, so the coverage matrix is block diagonal by weight and the
    # blocks can be ranked independently.
    achieved = 0
    for w in sorted(by_weight):
        block = by_weight[w]
        d = len(block)
        samples = []
        for _ in range(d + 8):
            lam = {mu: rng.randint(1, 97) for mu in monos}
            row = []
            for alpha in block:
                v = 1
                for mu, mult in alpha:
                    v *= lam[mu] ** mult
                row.append(v)
            samples.append(row)
        tr = RankTracker(d, Fp)
        for row in samples:
            tr.add([Fp.embed(v) for v in row])
            if tr.rank == d:
                break
        got = tr.rank
        if got < d:
            got = rank_of(([QQ.embed(v) for v in row] for row in samples),
                          d, QQ)
        achieved += got
    return achieved, dim
