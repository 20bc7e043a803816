"""Reference routines the tests compare against; no module of the package
calls them, and none imports this one.

The S_n slot helpers (check_perm, subst_slot, sn_act) act on concrete
polynomials term by term.  merge_repeats is the merge rule of orbit-sum
indices written out on its own, against which msf's product kernel is
checked.  The classical symmetric functions in one alphabet, a
polynomial in e_1, e_2, ... being a GenPoly(1, R) in the symbols
E[i;(1)], check rewrite's newton_p and plethysm_P: concrete elementary
polynomials, substitution, the elimination that rewrites a symmetric
polynomial into the e-basis, and plethysm_P_by_elimination, which
expands e_h(x^k) in h*k variables and eliminates.  That route shares no
code with Newton's identity; it is exponential in h*k, far too large
already at h = k = 4, and serves only to cross-check plethysm_P at small
sizes.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial

from multisym.coeffring import ZZ, Ring
from multisym.monomial import Mono, grlex_key
from multisym.msf import AlphaIndex
from multisym.oracle import is_invariant
from multisym.polyring import NPoly, _checked_int
from multisym.rewrite import GenPoly


def check_perm(sigma, n: int) -> None:
    """sigma must be a tuple of the 1-based images (sigma[j-1] = image of j)."""
    if len(sigma) != n or sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"{sigma} is not a permutation of 1..{n}")


def subst_slot(f: NPoly, j: int, n: int) -> NPoly:
    """The substitution x_i(1) -> x_i(j), landing the one-slot polynomial f
    in the n-slot ring: each packed key moves up by j-1 slots."""
    if f.n != 1:
        raise ValueError(f"need a one-slot polynomial, got {f.n} slots")
    _checked_int(n, "slot count", 1)
    if _checked_int(j, "slot index", 1) > n:
        raise ValueError(f"slot index {j} outside 1..{n}")
    shift = (j - 1) * f.m * f._w
    return NPoly._packed(n, f.m, f.ring, {k << shift: c for k, c in f._d.items()}, f._w)


def sn_act(sigma, p: NPoly) -> NPoly:
    """Slot permutation x_i(j) -> x_i(sigma(j)); sigma[j-1] is the image of j."""
    check_perm(sigma, p.n)
    m = p.m
    out = {}
    for mono, c in p.terms.items():
        key = [0] * len(mono)
        for j in range(p.n):
            dst = (sigma[j] - 1) * m
            src = j * m
            key[dst:dst + m] = mono[src:src + m]
        out[tuple(key)] = c
    return NPoly(p.n, p.m, p.ring, out)


# integer core of the merge rule: equal argument monomials collapse and pick
# up the multinomial coefficient (sum of mults)! / prod(mult_i!)

def _merge_int(args) -> tuple[AlphaIndex, int]:
    groups: dict[Mono, list[int]] = {}
    for mu, mult in args:
        if mult == 0:
            continue
        groups.setdefault(mu, []).append(mult)
    mult_factor = 1
    support = []
    for mu, parts in groups.items():
        tot = sum(parts)
        if len(parts) > 1:
            c = factorial(tot)
            for p in parts:
                c //= factorial(p)
            mult_factor *= c
        support.append((mu, tot))
    support.sort(key=lambda t: grlex_key(t[0]))
    return tuple(support), mult_factor


def merge_repeats(args, ring: Ring):
    """Public form of the merge rule: canonical index plus an R-scalar."""
    alpha, k = _merge_int(args)
    return alpha, ring.embed(k)


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
        rest = rest - epoly_to_npoly(GenPoly(1, ring, {key: c}), N, ring)
    return GenPoly(1, ring, out)


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
