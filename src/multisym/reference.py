"""Reference routines and library conveniences that no command reaches.

No `multisym` subcommand calls anything here, and no module the command
line front end imports imports this one, so a CLI process never compiles
it; the package serves its public names on first use (the PEP 562
`__getattr__` in `multisym`).  Over the rationals the single symbol
family e_{n+1}(f) generates the relation ideal, and char_zero_ideal_gens
writes those generators in the free e_1 alphabet.  The classical
symmetric functions in one alphabet, a polynomial in e_1, e_2, ... being
a GenPoly(1, R) in the symbols E[i;(1)], check rewrite's newton_p,
e_in_powersums and plethysm_P: concrete elementary polynomials,
substitution, the elimination that rewrites a symmetric polynomial into
the e-basis, and plethysm_P_by_elimination, which expands e_h(x^k) in
h*k variables and eliminates.  That route is exponential in h*k, far too
large already at h = k = 4, and serves only to cross-check plethysm_P at
small sizes.
"""

from __future__ import annotations

import random
import re
from functools import cache
from itertools import combinations
from math import factorial

from .coeffring import QQ, ZZ, Ring
from .linalg import rank_over_q
from .monomial import (Mono, compositions, deg_leq, grlex_key, is_primitive, mono_pow,
                       monomials_of_total_degree, monomials_up_to)
from .msf import INF, AlphaIndex, MsfElement, alpha_weight
from .oracle import is_invariant
from .polyring import NPoly, _checked_int
from .relations import kernel_basis, multidegrees_upto, relations_of
from .rewrite import GenPoly, _symbol_key, e_in_powersums, rewrite

__all__ = [
    "check_perm", "flat_index", "subst_slot", "sn_act", "parse_npoly",
    "merge_repeats", "product", "expand", "truncate", "ek_of_f",
    "genpoly_from_json", "free_monomial_count",
    "relation_items", "relation_polys", "char_zero_ideal_gens", "genpoly_to_e1",
    "coverage_rank",
    "elementary_npoly", "epoly_to_npoly", "epoly_substitute", "to_e_basis",
    "plethysm_P_by_elimination",
]


def check_perm(sigma, n: int) -> None:
    """sigma must be a tuple of the 1-based images (sigma[j-1] = image of j)."""
    if len(sigma) != n or sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"{sigma} is not a permutation of 1..{n}")


def flat_index(i: int, j: int, m: int) -> int:
    """Flat position of x_i(j), both 1-based."""
    return (j - 1) * m + (i - 1)


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


def parse_npoly(s: str, n: int, m: int, ring: Ring) -> NPoly:
    """Parse the npoly_text form, e.g. 'x1(1)*x2(2) + 2*x1(2)^3'."""
    s = s.strip()
    if s == "0":
        return NPoly.zero(n, m, ring)
    # split into signed terms at top level
    s = s.replace("-", "+-")
    parts = [t.strip() for t in s.split("+") if t.strip()]
    var_re = re.compile(r"^x(\d+)\((\d+)\)(?:\^(\d+))?$")
    total = NPoly.zero(n, m, ring)
    for part in parts:
        neg = part.startswith("-")
        if neg:
            part = part[1:].strip()
        coeff = ring.one
        exps = [0] * (n * m)
        saw_var = False
        for factor in part.split("*"):
            factor = factor.strip()
            mo = var_re.match(factor)
            if mo:
                i, j = int(mo.group(1)), int(mo.group(2))
                e = int(mo.group(3)) if mo.group(3) else 1
                if not (1 <= i <= m and 1 <= j <= n):
                    raise ValueError(f"variable x{i}({j}) outside ambient ({n},{m})")
                exps[flat_index(i, j, m)] += e
                saw_var = True
            else:
                coeff = ring.mul(coeff, ring.parse_coeff(factor))
        if not saw_var and not part:
            raise ValueError("empty term")
        if neg:
            coeff = ring.neg(coeff)
        total = total + NPoly.monomial(exps, n, m, ring, coeff)
    return total


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


def product(x: MsfElement, y: MsfElement) -> MsfElement:
    return x * y


def expand(x: MsfElement) -> NPoly:
    return x.expand()


def truncate(x: MsfElement, target) -> MsfElement:
    return x.truncate(target)


def ek_of_f(f: NPoly, k: int, n) -> MsfElement:
    """e_k evaluated at a one-slot polynomial f = f(x_1(1),...,x_m(1)) with
    zero constant term.

    Writing f = sum_mu lambda_mu * mu, the result is the sum over indices
    alpha supported on the monomials of f with |alpha| = k of
    (prod_mu lambda_mu^alpha(mu)) e_alpha.  Weight k terms all vanish when
    k > n in a finite ambient.
    """
    R = f.ring
    m = f.m
    if f.n != 1:
        raise ValueError(f"need a one-slot polynomial, got {f.n} slots")
    if k < 0:
        raise ValueError("negative k")
    if not R.is_zero(f.terms.get((0,) * m, R.zero)):
        raise ValueError("argument must have zero constant term")
    if k == 0:
        return MsfElement.one(n, m, R)
    if n is not INF and k > n:
        return MsfElement.zero(n, m, R)
    support = sorted(f.terms.items(), key=lambda t: grlex_key(t[0]))
    monos = [mu for mu, _ in support]
    lams = [c for _, c in support]
    out = {}
    for parts in compositions(k, len(monos)):
        coeff = R.one
        pairs = []
        for mu, lam, p in zip(monos, lams, parts):
            if p:
                coeff = R.mul(coeff, R.power(lam, p))
                pairs.append((mu, p))
        if R.is_zero(coeff):
            continue
        alpha = tuple(sorted(pairs, key=lambda t: grlex_key(t[0])))
        out[alpha] = R.add(out.get(alpha, R.zero), coeff)
    return MsfElement(n, m, R, out)


def genpoly_from_json(d) -> GenPoly:
    if not isinstance(d, dict):
        raise ValueError("generator polynomial must be a JSON object")
    for key in ("m", "ring", "terms"):
        if key not in d:
            raise ValueError(f"missing the {key!r} field")
    m = _checked_int(d["m"], "variable count", 1)
    ring = Ring.from_string(d["ring"])
    if not isinstance(d["terms"], list):
        raise ValueError("terms must be a list")
    out = {}
    for t in d["terms"]:
        if not isinstance(t, dict) or "symbols" not in t or "coeff" not in t \
                or not isinstance(t["symbols"], list) or not isinstance(t["coeff"], str):
            raise ValueError(f"bad term {t!r}")
        syms = {}
        for s in t["symbols"]:
            if not isinstance(s, dict) or not {"i", "nu", "exp"} <= set(s):
                raise ValueError(f"bad symbol {s!r}")
            nu = s["nu"]
            if not isinstance(nu, list) or len(nu) != m:
                raise ValueError(f"bad symbol monomial {nu!r}")
            for x in nu:
                _checked_int(x, "symbol monomial exponent", 0)
            sym = (_checked_int(s["i"], "symbol index", 1), tuple(nu))
            syms[sym] = syms.get(sym, 0) + _checked_int(s["exp"], "symbol exponent", 1)
        key = tuple(sorted(syms.items(), key=lambda t2: _symbol_key(t2[0])))
        c = ring.parse_coeff(t["coeff"])
        out[key] = ring.add(out.get(key, ring.zero), c)
    return GenPoly(m, ring, out)


@cache
def _free_symbols(m: int, a: Mono) -> tuple:
    """Symbols (i, nu) with nu primitive and multidegree i*deg(nu) <= a."""
    syms = []
    for nu in monomials_up_to(m, a):
        if not is_primitive(nu):
            continue
        i = 1
        while deg_leq(mono_pow(nu, i), a):
            syms.append((i, nu))
            i += 1
    syms.sort(key=_symbol_key)
    return tuple(syms)


def free_monomial_count(m: int, a) -> int:
    """Number of monomials of multidegree a in the free commutative
    polynomial ring on the symbols E[i;nu] with nu primitive, grading
    each symbol by i*deg(nu).
    """
    a = tuple(a)
    if len(a) != m:
        raise ValueError("multidegree length must equal m")
    if not any(a):
        return 1
    degs = [mono_pow(nu, i) for i, nu in _free_symbols(m, a)]

    @cache
    def rec(idx, remaining):
        if not any(remaining):
            return 1
        if idx == len(degs):
            return 0
        d = degs[idx]
        total = rec(idx + 1, remaining)
        rem = remaining
        while deg_leq(d, rem):
            rem = tuple(rem[t] - d[t] for t in range(m))
            total += rec(idx + 1, rem)
        return total

    return rec(0, a)


def relation_items(n: int, m: int, max_a: Mono, ring: Ring) -> list:
    """(multidegree, index, relation) triples up to max_a, in order."""
    if len(max_a) != m:
        raise ValueError("bound length must equal m")
    return [(a, alpha, g) for a in multidegrees_upto(max_a)
            for alpha, g in relations_of(n, m, a, ring)]


def relation_polys(n: int, m: int, max_a: Mono, ring: Ring) -> list:
    return [g for _, _, g in relation_items(n, m, max_a, ring)]


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
    contains, ranked by linalg.rank_over_q.
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

    # A row coming from e_{n+k}(f) is supported on indices of weight n+k
    # only, so the coverage matrix is block diagonal by weight and the
    # blocks can be ranked independently.
    achieved = 0
    for w in sorted(by_weight):
        block = by_weight[w]
        samples = []
        for _ in range(len(block) + 8):
            lam = {mu: rng.randint(1, 97) for mu in monos}
            row = []
            for alpha in block:
                v = 1
                for mu, mult in alpha:
                    v *= lam[mu] ** mult
                row.append(v)
            samples.append(row)
        achieved += rank_over_q(samples, len(block))
    return achieved, dim


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
