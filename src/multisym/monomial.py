"""Monomials in m commuting variables, as bare exponent tuples.

A monomial is a ``tuple[int, ...]`` of nonnegative exponents; its length is
the ambient variable count m, its multidegree is the tuple itself and its
total degree the sum of entries.  The canonical order is graded
lexicographic: total degree first, then plain tuple comparison (so the
first variable weighs heaviest on ties).

Multidegrees use the same representation, so the helpers here serve both.
"""

from __future__ import annotations

from itertools import product as _cartesian
from math import gcd

Mono = tuple[int, ...]

__all__ = [
    "Mono",
    "check_mono",
    "mono_one",
    "total_degree",
    "grlex_key",
    "mono_cmp",
    "mono_mul",
    "mono_pow",
    "is_primitive",
    "primitive_decompose",
    "compositions",
    "monomials_of_total_degree",
    "monomials_up_to",
    "multidegrees_upto",
    "deg_leq",
]


def check_mono(mu: Mono) -> None:
    if not isinstance(mu, tuple) or not mu:
        raise ValueError(f"monomial must be a nonempty tuple, got {mu!r}")
    if any(type(e) is not int or e < 0 for e in mu):
        raise ValueError(f"monomial exponents must be naturals, got {mu!r}")


def mono_one(m: int) -> Mono:
    return (0,) * m


def total_degree(mu: Mono) -> int:
    return sum(mu)


def grlex_key(mu: Mono):
    return (sum(mu), mu)


def _same_m(a: Mono, b: Mono) -> None:
    if len(a) != len(b):
        raise ValueError(f"ambient mismatch: {len(a)} vs {len(b)} variables")


def mono_cmp(a: Mono, b: Mono) -> int:
    """Graded-lex comparison: -1, 0 or 1."""
    _same_m(a, b)
    ka, kb = grlex_key(a), grlex_key(b)
    return (ka > kb) - (ka < kb)


def mono_mul(a: Mono, b: Mono) -> Mono:
    _same_m(a, b)
    return tuple(x + y for x, y in zip(a, b))


def mono_pow(mu: Mono, k: int) -> Mono:
    if k < 0:
        raise ValueError("negative monomial power")
    return tuple(e * k for e in mu)


def is_primitive(mu: Mono) -> bool:
    """True iff mu is not a proper power, i.e. gcd of exponents is 1."""
    return gcd(*mu) == 1 if len(mu) > 1 else mu[0] == 1


def primitive_decompose(mu: Mono) -> tuple[Mono, int]:
    """Unique (nu, k) with mu = nu**k and nu primitive; k = gcd of exponents."""
    check_mono(mu)
    k = 0
    for e in mu:
        k = gcd(k, e)
    if k == 0:
        raise ValueError("the empty monomial has no primitive decomposition")
    return tuple(e // k for e in mu), k


def compositions(total: int, parts: int):
    """Yield all tuples of `parts` naturals summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def monomials_of_total_degree(m: int, d: int) -> list[Mono]:
    """All monomials in m variables of total degree exactly d, grlex sorted."""
    return sorted(compositions(d, m), key=grlex_key)


def monomials_up_to(m: int, bound: Mono) -> list[Mono]:
    """Positive-degree monomials componentwise <= bound, grlex sorted."""
    if len(bound) != m:
        raise ValueError("bound length must equal m")
    out = [mu for mu in _cartesian(*(range(b + 1) for b in bound)) if any(mu)]
    out.sort(key=grlex_key)
    return out


def multidegrees_upto(max_a: Mono) -> list:
    """Componentwise bounded multidegrees, ordered by total then entries."""
    return [(0,) * len(max_a)] + monomials_up_to(len(max_a), max_a)


def deg_leq(a: Mono, b: Mono) -> bool:
    _same_m(a, b)
    return all(x <= y for x, y in zip(a, b))
