"""The paper's results as library functions, and the parsers; no command
reaches them.

No `multisym` subcommand calls anything here, and no module the command
line front end imports imports this one, so a CLI process never compiles
it; the package serves its public names on first use (the PEP 562
`__getattr__` in `multisym`).  Over the rationals the single symbol
family e_{n+1}(f) generates the relation ideal: ek_of_f evaluates e_k at
a polynomial, and char_zero_ideal_gens writes those generators in the
free e_1 alphabet (genpoly_to_e1).  coverage_rank is the certificate
that the e_{n+k}(f) span each kernel, free_monomial_count counts the
monomials of the free generator ring, and relation_items lists the
defining relations.  parse_npoly reads npoly_text's form, and
genpoly_from_json the JSON form of a generator polynomial.  Integer
arguments are checked on entry, as the engine checks its own.
"""

from __future__ import annotations

import random
import re
from functools import cache

from .coeffring import QQ, Ring
from .linalg import rank_over_q
from .monomial import (Mono, compositions, deg_leq, grlex_key, is_primitive, mono_pow,
                       monomials_of_total_degree, monomials_up_to)
from .msf import INF, MsfElement, alpha_weight
from .polyring import NPoly, _checked_degrees, _checked_int
from .relations import kernel_basis, multidegrees_upto, relations_of
from .rewrite import GenPoly, _symbol_key, rewrite

__all__ = [
    "flat_index", "parse_npoly", "product", "expand", "truncate", "ek_of_f",
    "genpoly_from_json", "free_monomial_count",
    "relation_items", "relation_polys", "char_zero_ideal_gens", "genpoly_to_e1",
    "coverage_rank",
]


def flat_index(i: int, j: int, m: int) -> int:
    """Flat position of x_i(j), both 1-based."""
    return (j - 1) * m + (i - 1)


def parse_npoly(s: str, n: int, m: int, ring: Ring) -> NPoly:
    """Parse the npoly_text form, e.g. 'x1(1)*x2(2) + 2*x1(2)^3'."""
    s = s.strip()
    if s == "0":
        return NPoly.zero(n, m, ring)
    # split into signed terms at top level
    s = s.replace("-", "+-")
    parts = [t.strip() for t in s.split("+") if t.strip()]
    var_re = re.compile(r"^x([0-9]+)\(([0-9]+)\)(?:\^([0-9]+))?$")
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
    _checked_int(k, "e_k degree", 0)
    if n is not INF:
        _checked_int(n, "slot count", 1)
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
    a = _checked_degrees(m, a, "multidegree")
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
    _checked_int(n, "slot count", 1)
    max_a = _checked_degrees(m, max_a, "bound")
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
    _checked_int(n, "slot count", 1)
    _checked_int(m, "variable count", 1)
    _checked_int(bound, "total degree bound", 0)
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
    """e_i on the alphabet of nu-values in its power sums E[1;nu^r], by
    Newton's identity over the field R: h e_h = sum_{r=1..h} (-1)^{r-1}
    E[1;nu^r] e_{h-r} (ZeroDivisionError over Z/p with p <= i)."""
    es = [GenPoly.one(m, R)]
    for h in range(1, i + 1):
        acc = GenPoly.zero(m, R)
        for r in range(1, h + 1):
            t = GenPoly.symbol(1, mono_pow(nu, r), m, R) * es[h - r]
            acc = acc + (t if r % 2 == 1 else -t)
        es.append(acc.scale(R.inv(R.embed(h))))
    return es[i]


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
