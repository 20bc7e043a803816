"""Brute-force ground truth for the invariant ring.

Everything here works directly with the slot permutation action on the
concrete polynomial ring: enumerate monomials of a multidegree, group them
into orbits, sum the orbits.  Deliberately naive (n! loops) and deliberately
independent: none of the abstract basis or rewriting machinery is used, so
differential tests against this module mean something.  The enumeration of
a multidegree's monomials is cached per (n, m, a), so orbit counts and rank
columns share it; the orbit representatives read off it are cached the
same way, for orbit counts and invariant bases.  Neither depends on a
coefficient ring.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations, product

from .coeffring import Ring
from .monomial import Mono, compositions
from .polyring import NPoly

__all__ = [
    "orbit_sum",
    "invariant_basis",
    "is_invariant",
    "monomials_of_multidegree",
    "count_orbits",
]


def _blocks(mono, n: int, m: int):
    return tuple(mono[j * m:(j + 1) * m] for j in range(n))


def _from_blocks(blocks):
    out = []
    for b in blocks:
        out.extend(b)
    return tuple(out)


def orbit_sum(mono, n: int, m: int, ring: Ring) -> NPoly:
    """Sum of the distinct slot permutations of one monomial."""
    blocks = _blocks(tuple(mono), n, m)
    images = {_from_blocks(p) for p in permutations(blocks)}
    return NPoly(n, m, ring, {img: ring.one for img in images})


def monomials_of_multidegree(n: int, m: int, a: Mono) -> tuple:
    """All flat monomials of the n-slot ring with the given multidegree,
    sorted; the column index for rank checks."""
    a = tuple(a)
    if len(a) != m:
        raise ValueError("multidegree length must equal m")
    return _monomials_cached(n, m, a)


@cache
def _monomials_cached(n: int, m: int, a: Mono) -> tuple:
    per_family = [list(compositions(ai, n)) for ai in a]
    out = []
    for combo in product(*per_family):
        exps = [0] * (n * m)
        for i in range(m):
            for j in range(n):
                exps[j * m + i] = combo[i][j]
        out.append(tuple(exps))
    out.sort()
    return tuple(out)


def _orbit_reps(n: int, m: int, a: Mono) -> tuple:
    """One sorted block tuple per orbit of monomials of multidegree a."""
    a = tuple(a)
    if len(a) != m:
        raise ValueError("multidegree length must equal m")
    return _orbit_reps_cached(n, m, a)


@cache
def _orbit_reps_cached(n: int, m: int, a: Mono) -> tuple:
    reps = set()
    for mono in monomials_of_multidegree(n, m, a):
        reps.add(tuple(sorted(_blocks(mono, n, m))))
    return tuple(sorted(reps))


def count_orbits(n: int, m: int, a: Mono) -> int:
    return len(_orbit_reps(n, m, a))


def invariant_basis(n: int, m: int, a: Mono, ring: Ring) -> list:
    """One orbit sum per orbit of monomials of multidegree a.

    These span the invariants of that multidegree component.
    """
    return [orbit_sum(_from_blocks(rep), n, m, ring) for rep in _orbit_reps(n, m, a)]


def is_invariant(p: NPoly, n: int) -> bool:
    """Fixed by every slot permutation; adjacent swaps generate, so they
    are all that gets checked."""
    m = p.m
    for t in range(n - 1):
        moved = {}
        for mono, c in p.terms.items():
            blocks = list(_blocks(mono, n, m))
            blocks[t], blocks[t + 1] = blocks[t + 1], blocks[t]
            moved[_from_blocks(blocks)] = c
        if moved != p.terms:
            return False
    return True
