"""The references the tests compare against, each stated once; no module
of the package calls them, and none imports this one.

The writers' spec: every written term order is the nested sort key
(nested_alpha_key, nested_term_key, nested_mono_key), every text a sum of
per-term spellings (ref_signed), and every JSON text json.dumps of the
dict form, for MsfElement, GenPoly (with its check member) and NPoly.
The term-dict arithmetic: ref_add, ref_mul and ref_pow on plain dicts
from keys to ring elements, the product of two keys passed in, and
ref_evaluate, the MsfElement product of e_i(nu)**e over each symbol
monomial.

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

import json
from itertools import combinations, product
from math import factorial

from multisym.coeffring import ZZ, Ring
from multisym.monomial import Mono, grlex_key
from multisym.msf import INF, AlphaIndex, MsfElement, e_alpha
from multisym.oracle import is_invariant
from multisym.polyring import NPoly, _checked_int
from multisym.rewrite import GenPoly


# ---- the writers' spec: nested sort keys, per-term text, json.dumps ---------

def grlex(mu) -> tuple:
    return (sum(mu), mu)


def nested_alpha_key(alpha, m: int) -> tuple:
    """Total degree, multidegree, then the parts' ((deg mu, mu), mult), a
    prefix first."""
    a = tuple(sum(mu[t] * k for mu, k in alpha) for t in range(m))
    return (sum(a), a, tuple((grlex(mu), k) for mu, k in alpha))


def nested_term_key(symmono, m: int) -> tuple:
    """Total degree, multidegree, then the factors' (((deg nu, nu), i), e)."""
    d = [0] * m
    for (i, nu), e in symmono:
        for t, x in enumerate(nu):
            d[t] += i * x * e
    d = tuple(d)
    return (sum(d), d, tuple(((grlex(nu), i), e) for (i, nu), e in symmono))


def nested_mono_key(mono, m: int) -> tuple:
    """NPoly's order: grlex on the flat exponent tuple."""
    return grlex(mono)


def ref_signed(rows) -> str:
    """A sum from (coefficient text, body) rows: a coefficient of 1 or -1
    is left out before a body, a leading minus joins as " - "."""
    out = ""
    for cs, body in rows:
        t = cs if not body else body if cs == "1" else "-" + body if cs == "-1" else f"{cs}*{body}"
        out += t if not out else " - " + t[1:] if t.startswith("-") else " + " + t
    return out or "0"


def ref_power(base: str, e: int) -> str:
    return base + (f"^{e}" if e > 1 else "")


def ref_mono(mu) -> str:
    return "*".join(ref_power(f"y{i + 1}", e) for i, e in enumerate(mu) if e)


def ref_alpha_text(alpha) -> str:
    return "e(%s)" % ", ".join(f"{ref_mono(mu)}:{k}" for mu, k in alpha) if alpha else "1"


def ref_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def ref_sorted(x, key) -> list:
    """The terms of x in the order of key(term key, x.m)."""
    return sorted(x.terms.items(), key=lambda t: key(t[0], x.m))


def ref_element_dict(x) -> dict:
    fmt = x.ring.format_coeff
    return {"m": x.m, "n": "inf" if x.n is INF else x.n, "ring": x.ring.to_string(),
            "terms": [{"alpha": [{"mono": list(mu), "mult": k} for mu, k in alpha],
                       "coeff": fmt(c)} for alpha, c in ref_sorted(x, nested_alpha_key)]}


def ref_element_writes(x) -> tuple:
    """(sorted terms, text, JSON text) of an MsfElement."""
    fmt, terms = x.ring.format_coeff, ref_sorted(x, nested_alpha_key)
    text = ref_signed((fmt(c), ref_alpha_text(alpha) if alpha else "") for alpha, c in terms)
    return terms, text, ref_dumps(ref_element_dict(x))


def ref_genpoly_dict(g, check=None) -> dict:
    """With the check member unless check is None."""
    fmt = g.ring.format_coeff
    obj = {"m": g.m, "ring": g.ring.to_string(),
           "terms": [{"coeff": fmt(c),
                      "symbols": [{"exp": e, "i": i, "nu": list(nu)} for (i, nu), e in symmono]}
                     for symmono, c in ref_sorted(g, nested_term_key)]}
    if check is not None:
        obj["check"] = check
    return obj


def ref_genpoly_writes(g, check=None) -> tuple:
    """(sorted terms, text, JSON text) of a GenPoly."""
    fmt, terms = g.ring.format_coeff, ref_sorted(g, nested_term_key)
    text = ref_signed((fmt(c), "*".join(ref_power("E[%d;(%s)]" % (i, ",".join(map(str, nu))), e)
                                         for (i, nu), e in symmono))
                      for symmono, c in terms)
    return terms, text, ref_dumps(ref_genpoly_dict(g, check))


def ref_npoly_dict(p) -> dict:
    fmt = p.ring.format_coeff
    return {"m": p.m, "n": p.n, "ring": p.ring.to_string(),
            "terms": [{"coeff": fmt(c), "exps": list(mono)}
                      for mono, c in ref_sorted(p, nested_mono_key)]}


def ref_npoly_writes(p) -> tuple:
    """(sorted terms, text, JSON text) of an NPoly; x_i(j) is at flat index
    (j-1)*m + (i-1)."""
    fmt, m = p.ring.format_coeff, p.m
    terms = ref_sorted(p, nested_mono_key)
    text = ref_signed((fmt(c), "*".join(ref_power(f"x{k % m + 1}({k // m + 1})", e)
                                         for k, e in enumerate(mono) if e))
                      for mono, c in terms)
    return terms, text, ref_dumps(ref_npoly_dict(p))


# ---- term-dict arithmetic: plain dicts from keys to ring elements ----------

def ref_settled(R, d: dict) -> dict:
    return {k: c for k, c in d.items() if not R.is_zero(c)}


def ref_add(R, a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = R.add(out.get(k, R.zero), c)
    return ref_settled(R, out)


def ref_mul(R, a: dict, b: dict, times) -> dict:
    """The product; times(ka, kb) is the product of two keys, a dict from
    keys to integer multiplicities."""
    out = {}
    for (ka, ca), (kb, cb) in product(a.items(), b.items()):
        for k, mult in times(ka, kb).items():
            out[k] = R.add(out.get(k, R.zero), R.mul(R.mul(ca, cb), R.embed(mult)))
    return ref_settled(R, out)


def ref_pow(R, a: dict, k: int, unit, times) -> dict:
    """a**k by repeated ref_mul, from the term unit: 1."""
    out = {unit: R.one}
    for _ in range(k):
        out = ref_mul(R, out, a, times)
    return out


def ref_symmono_mul(a, b) -> tuple:
    """Product of two symbol monomials, each a sorted tuple of (symbol, exp);
    a's order stands unless b brings a new symbol."""
    if not a or not b:
        return a or b
    d = dict(a)
    size = len(d)
    for sym, e in b:
        d[sym] = d.get(sym, 0) + e
    if len(d) == size:
        return tuple(d.items())
    return tuple(sorted(d.items(), key=lambda t: (sum(t[0][1]), t[0][1], t[0][0])))


def ref_symmono_times(a, b) -> dict:
    return {ref_symmono_mul(a, b): 1}


def ref_evaluate(g, n) -> MsfElement:
    """prod e_i(nu)**e over each symbol monomial of g, multiplied out as
    MsfElements in ambient n; e_i(nu) vanishes for i > n."""
    R, m = g.ring, g.m
    out = MsfElement.zero(n, m, R)
    for symmono, c in g.terms.items():
        image = MsfElement.one(n, m, R)
        for (i, nu), e in symmono:
            if n is not INF and i > n:
                image = MsfElement.zero(n, m, R)
            else:
                image = image * e_alpha([(nu, i)], n, m, R) ** e
        out = out + image.scale(c)
    return out


# ---- the S_n slot helpers ---------------------------------------------------

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
        if key in out:
            raise AssertionError(f"leading term {lam} was not killed")
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
