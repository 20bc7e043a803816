"""Classical symmetric functions in one alphabet: the reference routines.

A polynomial in the elementary symmetric functions e_1, e_2, ... is a
GenPoly(1, R) in the symbols E[i;(1)], graded by deg E[i;(1)] = i; the
Newton expressions newton_p, the expansion e_in_powersums and the
plethysm polynomials plethysm_P live in rewrite, which uses them.  This
module keeps the classical routines that check them: the concrete
elementary polynomials, substitution into concrete or arbitrary targets,
the elimination that rewrites a symmetric polynomial into the e-basis,
and plethysm_P_by_elimination, which expands e_h(x^k) in h*k variables
and eliminates.  That route is exponential in h*k, far too large already
at h = k = 4, and serves only to cross-check plethysm_P at small sizes.
"""

from __future__ import annotations

from itertools import combinations

from .coeffring import Ring, ZZ
from .oracle import is_invariant
from .polyring import NPoly
from .rewrite import GenPoly

__all__ = [
    "plethysm_P_by_elimination",
    "to_e_basis",
    "elementary_npoly",
    "epoly_to_npoly",
    "epoly_substitute",
]


def elementary_npoly(i: int, N: int, ring: Ring) -> NPoly:
    """The i-th elementary symmetric polynomial in the N variables x_1(1..N)."""
    if i < 0:
        raise ValueError("negative index")
    if i > N:
        return NPoly.zero(N, 1, ring)
    terms = {}
    for sel in combinations(range(N), i):
        mu = tuple(1 if t in sel else 0 for t in range(N))
        terms[mu] = ring.one
    return NPoly(N, 1, ring, terms)


def epoly_to_npoly(ep: GenPoly, N: int, ring: Ring) -> NPoly:
    """Substitute the concrete elementary polynomials in N variables for
    the E[i;(1)]; ep lives over Z or over ring itself."""
    return epoly_substitute(ep, lambda i: elementary_npoly(i, N, ring), NPoly.one(N, 1, ring),
                            lambda c, x: x.scale(ring.embed(c)))


def epoly_substitute(ep: GenPoly, value_of, one, scalar):
    """Generic evaluation: E[i;(1)] -> value_of(i), in any commutative target.

    one is the unit of the target; scalar(c, x) scales a target value by a
    coefficient of ep.
    """
    if ep.m != 1 or any(nu != (1,) for _, nu in ep.symbols()):
        raise ValueError("need a polynomial in the symbols E[i;(1)]")
    total = None
    for symmono, c in ep.terms.items():
        term = one
        for (i, _), e in symmono:
            for _ in range(e):
                term = term * value_of(i)
        term = scalar(c, term)
        total = term if total is None else total + term
    if total is None:
        return scalar(0, one)
    return total


def to_e_basis(f: NPoly) -> GenPoly:
    """Rewrite a symmetric polynomial in N variables into the e-basis, a
    GenPoly(1, f.ring) in the symbols E[i;(1)].

    f lives in N slots of one variable each, x_1(1..N), which S_N permutes.
    Classical elimination: repeatedly kill the lex-leading term lambda by
    subtracting c * prod_i e_i^(lambda_i - lambda_{i+1}).  Input degree must
    not exceed N, the range where the e-basis expression is stable.
    """
    if f.m != 1:
        raise ValueError(f"need one variable per slot, got {f.m}")
    N = f.n
    ring = f.ring
    deg = max((sum(mu) for mu in f.terms), default=-1)
    if deg > N:
        raise ValueError(f"degree {deg} exceeds the {N}-variable faithful range")
    if not is_invariant(f, N):
        raise ValueError("input polynomial is not symmetric")
    rest = f
    out = {}
    while not rest.is_zero:
        lam = max(rest.terms)  # lex leading, y_1 heaviest
        if any(lam[i] < lam[i + 1] for i in range(N - 1)):
            raise AssertionError("leading exponent of a symmetric polynomial must decrease")
        c = rest.terms[lam]
        # each step kills a smaller leading term, so every key comes once
        exps = [a - b for a, b in zip(lam, lam[1:] + (0,))]
        key = tuple([((i, (1,)), e) for i, e in enumerate(exps, 1) if e])
        out[key] = c
        rest = rest - epoly_to_npoly(GenPoly._make(1, ring, {key: c}), N, ring)
    return GenPoly._make(1, ring, out)


def plethysm_P_by_elimination(h: int, k: int) -> GenPoly:
    """Reference route for P_{h,k}: expand e_h(x^k) in h*k variables and
    eliminate.  Exponential in h*k; for cross-checks only."""
    if h < 0 or k < 1:
        raise ValueError("need h >= 0 and k >= 1")
    if h == 0:
        return GenPoly.one(1, ZZ)
    N = h * k
    terms = {}
    for sel in combinations(range(N), h):
        mu = tuple(k if t in sel else 0 for t in range(N))
        terms[mu] = 1
    return to_e_basis(NPoly(N, 1, ZZ, terms))
