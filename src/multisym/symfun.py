"""One-row symmetric function algebra over Z.

EPoly is a polynomial in abstract symbols e_1, e_2, ... graded by
deg(e_i) = i.  The module supplies the Newton expressions of the power sums
p_k in the e-basis, the classical elimination that rewrites a concrete
symmetric polynomial into the e-basis, and the polynomials P_{h,k}
expressing e_h(x_1^k, x_2^k, ...) in the e_i.

P_{h,k} is computed through the power-sum basis: e_h is expanded into
products of p_r (with rational coefficients), the substitution x -> x^k
sends p_r to p_{rk}, and the result is pushed back into the e-basis with
the Newton expressions.  The direct route (expand e_h(x^k) in h*k
variables, then eliminate) is kept as plethysm_P_by_elimination for
cross-checking at small sizes; it is far too large already at h = k = 4.

Everything here is coefficient-exact; specialization into a target ring
happens at the call sites.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations

from .coeffring import Ring, ZZ
from .polyring import NPoly, Sparse, _checked_int, signed_text, sn_act

__all__ = [
    "EPoly",
    "newton_p",
    "plethysm_P",
    "plethysm_P_by_elimination",
    "to_e_basis",
    "elementary_npoly",
    "epoly_to_npoly",
    "epoly_substitute",
    "e_in_powersums",
]


def _trim(exps) -> tuple:
    exps = list(exps)
    while exps and exps[-1] == 0:
        exps.pop()
    return tuple(exps)


class EPoly(Sparse):
    """Sparse polynomial in e_1, e_2, ... over Z; keys are exponent tuples
    of (e_1, ..., e_L) with trailing zeros trimmed."""

    __slots__ = ("terms",)
    ring = ZZ

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exps, c in terms.items():
                key = _trim([_checked_int(e, "exponent", 0) for e in exps])
                if c != 0:
                    clean[key] = c
        self.terms = clean

    @classmethod
    def _make(cls, terms: dict) -> "EPoly":
        self = object.__new__(cls)
        self.terms = terms
        return self

    def _ambient(self) -> tuple:
        return ()

    def _degree(self, exps) -> tuple:
        """Graded degree (deg e_i = i), as a multidegree of length 1."""
        return (sum([(i + 1) * e for i, e in enumerate(exps)]),)

    @classmethod
    def const(cls, c) -> "EPoly":
        return cls({(): c})

    @classmethod
    def gen(cls, i: int) -> "EPoly":
        """The symbol e_i."""
        if i < 1:
            raise ValueError("e_i needs i >= 1")
        return cls({(0,) * (i - 1) + (1,): 1})

    def __mul__(self, other: "EPoly") -> "EPoly":
        out = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                if len(ka) < len(kb):
                    ka2 = ka + (0,) * (len(kb) - len(ka))
                    key = tuple(x + y for x, y in zip(ka2, kb))
                else:
                    kb2 = kb + (0,) * (len(ka) - len(kb))
                    key = tuple(x + y for x, y in zip(ka, kb2))
                out[key] = out.get(key, 0) + ca * cb
        return self._like(ZZ.settle(out, 1))

    def degree(self) -> int:
        """Graded degree with deg(e_i) = i; -1 for zero."""
        return max(self.multidegrees(), default=(-1,))[0]

    def is_homogeneous(self) -> bool:
        return len(self.multidegrees()) <= 1

    def max_index(self) -> int:
        """Largest i with e_i occurring; 0 for constants."""
        return max((len(k) for k in self.terms), default=0)

    def sorted_terms(self):
        # leading term first: highest weighted degree, then largest exponents
        return sorted(self.terms.items(), key=lambda t: (self._degree(t[0]), t[0]), reverse=True)

    def text(self) -> str:
        return signed_text(
            (str(c), "*".join(f"e{i+1}" + (f"^{e}" if e > 1 else "")
                              for i, e in enumerate(exps) if e))
            for exps, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"EPoly({self.text()})"


@cache
def newton_p(k: int) -> EPoly:
    """The power sum p_k in the e-basis via the Newton recurrence
    p_k = e_1 p_{k-1} - e_2 p_{k-2} + ... + (-1)^{k-1} k e_k."""
    if k < 1:
        raise ValueError("p_k needs k >= 1; p_0 depends on the variable count")
    if k == 1:
        return EPoly.gen(1)
    acc = EPoly.zero()
    for i in range(1, k):
        t = EPoly.gen(i) * newton_p(k - i)
        acc = acc + (t if i % 2 == 1 else -t)
    ek = EPoly.gen(k).scale(k)
    return acc + (ek if (k - 1) % 2 == 0 else -ek)


@cache
def e_in_powersums(h: int) -> dict:
    """e_h as a rational combination of power-sum products.

    Keys are partitions (descending tuples of the p-indices), values are
    Fractions; from h * e_h = sum_{i=1..h} (-1)^{i-1} p_i e_{h-i}.
    """
    if h == 0:
        return {(): Fraction(1)}
    out: dict[tuple, Fraction] = {}
    for i in range(1, h + 1):
        sign = 1 if i % 2 == 1 else -1
        for part, c in e_in_powersums(h - i).items():
            key = tuple(sorted(part + (i,), reverse=True))
            out[key] = out.get(key, Fraction(0)) + sign * c / h
    return {k: c for k, c in out.items() if c}


@cache
def plethysm_P(h: int, k: int) -> EPoly:
    """The polynomial P_{h,k} with e_h(x_1^k, x_2^k, ...) = P_{h,k}(e_1, e_2, ...).

    Homogeneous of degree h*k; integer coefficients even though the
    power-sum detour is rational.
    """
    if h < 0 or k < 1:
        raise ValueError("need h >= 0 and k >= 1")
    if h == 0:
        return EPoly.const(1)
    acc: dict[tuple, Fraction] = {}
    for part, c in e_in_powersums(h).items():
        prod = EPoly.const(1)
        for r in part:
            prod = prod * newton_p(r * k)
        for exps, v in prod.terms.items():
            acc[exps] = acc.get(exps, Fraction(0)) + c * v
    terms = {}
    for exps, c in acc.items():
        if c == 0:
            continue
        if c.denominator != 1:
            raise AssertionError(f"non-integral coefficient {c} in P_{h},{k}")
        terms[exps] = int(c)
    return EPoly._make(terms)


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


def epoly_to_npoly(ep: EPoly, N: int, ring: Ring) -> NPoly:
    """Substitute the concrete elementary polynomials in N variables."""
    total = NPoly.zero(N, 1, ring)
    for exps, c in ep.terms.items():
        term = NPoly.one(N, 1, ring)
        for i0, e in enumerate(exps):
            if e:
                term = term * (elementary_npoly(i0 + 1, N, ring) ** e)
        total = total + term.scale(ring.embed(c))
    return total


def epoly_substitute(ep: EPoly, value_of, one, scalar):
    """Generic evaluation: e_i -> value_of(i), in any commutative target.

    one is the unit of the target; scalar(c, x) scales a target value by an
    integer coefficient.
    """
    total = None
    for exps, c in ep.terms.items():
        term = one
        for i0, e in enumerate(exps):
            for _ in range(e):
                term = term * value_of(i0 + 1)
        term = scalar(c, term)
        total = term if total is None else total + term
    if total is None:
        return scalar(0, one)
    return total


def _check_symmetric(f: NPoly) -> None:
    N = f.n
    for t in range(1, N):
        perm = list(range(1, N + 1))
        perm[t - 1], perm[t] = perm[t], perm[t - 1]
        if sn_act(tuple(perm), f) != f:
            raise ValueError("input polynomial is not symmetric")


def to_e_basis(f: NPoly) -> EPoly:
    """Rewrite a symmetric polynomial in N variables into the e-basis.

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
    _check_symmetric(f)
    rest = f
    out = {}
    while not rest.is_zero:
        lam = max(rest.terms)  # lex leading, y_1 heaviest
        if any(lam[i] < lam[i + 1] for i in range(N - 1)):
            raise AssertionError("leading exponent of a symmetric polynomial must decrease")
        c = rest.terms[lam]
        exps = [0] * N
        for i in range(N):
            nxt = lam[i + 1] if i + 1 < N else 0
            exps[i] = lam[i] - nxt
        key = _trim(exps)
        out[key] = out.get(key, 0) + c
        prod = NPoly.one(N, 1, ring)
        for i0, e in enumerate(key):
            if e:
                prod = prod * (elementary_npoly(i0 + 1, N, ring) ** e)
        rest = rest - prod.scale(c)
    return EPoly(out)


def plethysm_P_by_elimination(h: int, k: int) -> EPoly:
    """Reference route for P_{h,k}: expand e_h(x^k) in h*k variables and
    eliminate.  Exponential in h*k; for cross-checks only."""
    if h < 0 or k < 1:
        raise ValueError("need h >= 0 and k >= 1")
    if h == 0:
        return EPoly.const(1)
    N = h * k
    terms = {}
    for sel in combinations(range(N), h):
        mu = tuple(k if t in sel else 0 for t in range(N))
        terms[mu] = 1
    return to_e_basis(NPoly(N, 1, ZZ, terms))
