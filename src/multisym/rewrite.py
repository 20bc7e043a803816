"""Rewriting orbit-sum symbols into polynomials in the generators e_i(nu).

GenPoly is a polynomial in abstract symbols E[i;nu] = e_i(nu) over a
coefficient ring, graded by giving E[i;nu] multidegree i*deg(nu).  Two
alphabets share the type:

* the free-generator alphabet, nu primitive: what rewrite produces;
* the e_1 alphabet over the rationals, symbols E[1;mu] with mu arbitrary,
  used for the characteristic-zero relation generators.

The pipeline has two stages.  reduce_to_monomial_es applies the peeling
recursion: for an index with several support monomials, split off the
largest one as e_a(mu) times the rest and subtract the lower-weight
correction terms coming from the product formula; iterate.  The recursion
is ambient-independent because every index involved keeps weight at most
the input's.  primitive_reduce then replaces each symbol e_i(nu^k), k >= 2,
by the polynomial P_{i,k} evaluated at e_j -> E[j;nu], killing E[j;nu] with
j > n first in a finite ambient.

As in msf, the GenPoly constructor and genpoly_from_json validate every
symbol: a symbol monomial must list its symbols in the canonical order,
each once, and a boolean is refused as an index or exponent.  Arithmetic
and the pipeline build results through GenPoly._make, a direct slot store
of terms that Ring.settle has already cleared of zeros.

Caching contract: every cache here holds integer images, keyed by the
input and the ambient n (and m) but never by a coefficient ring.  The
structure constants are integers, so one image serves Z, Q and every Z/p:
_reduce_alpha gives e_alpha in the symbols e_i(mu), _primitive_image_z a
symbol monomial's primitive form in ambient n, and _evaluate_image_z the
orbit-sum expansion of a generator monomial in ambient n.  The ring enters
last.  reduce_to_monomial_es, primitive_reduce and evaluate lift the input's
coefficients to integer numerators over one denominator (Ring.lift: the
coefficients themselves over Z and Z/p, over Q the numerators scaled to the
lcm of the denominators), add numerator times image into one dict of ints,
and settle each surviving sum into the ring once (Ring.settle: mod p over
Z/p, one Fraction per term over Q).
"""

from __future__ import annotations

from functools import cache

from .coeffring import ZZ, Ring
from .monomial import (Mono, deg_leq, grlex_key, is_primitive, mono_pow,
                       monomials_up_to, primitive_decompose)
from .msf import (_JSON, _TEXT, INF, AlphaIndex, MsfElement, _alpha_product_z,
                  _check_slots, _packed_degree, _sorted_rows, alpha_weight, e_alpha)
from .polyring import BASE_WIDTH, Sparse, _checked_int, signed_text
from .symfun import plethysm_P

__all__ = [
    "GenPoly",
    "reduce_to_monomial_es",
    "primitive_reduce",
    "rewrite",
    "evaluate",
    "free_monomial_count",
    "genpoly_json_text",
    "genpoly_to_json",
    "genpoly_from_json",
]


def _symbol_key(sym):
    i, nu = sym
    return (grlex_key(nu), i)


def _symmono_mul(a, b) -> tuple:
    """Product of two symbol monomials, each a sorted tuple of (symbol, exp)."""
    d = dict(a)
    for sym, e in b:
        d[sym] = d.get(sym, 0) + e
    return tuple(sorted(d.items(), key=lambda t: _symbol_key(t[0])))


@cache
def _factor_render(factor) -> tuple:
    """Render record (as in msf) of a symbol factor ((i, nu), e); key part
    (deg nu, nu, i, e)."""
    (i, nu), e = factor
    nus = ",".join(map(str, nu))
    deg = tuple([x * i * e for x in nu])
    return (sum(nu), *nu, i, e, sum(deg), deg, _packed_degree(deg, BASE_WIDTH),
            f"E[{i};({nus})]" + (f"^{e}" if e > 1 else ""),
            '{"exp":%d,"i":%d,"nu":[%s]}' % (e, i, nus), factor)


def _symmono_degree(symmono, m: int) -> Mono:
    deg = [0] * m
    for (i, nu), e in symmono:
        for t, x in enumerate(nu):
            deg[t] += i * x * e
    return tuple(deg)


class GenPoly(Sparse):
    """Polynomial in the abstract symbols E[i;nu] over a Ring."""

    __slots__ = ("m", "ring", "terms")

    def __init__(self, m: int, ring: Ring, terms=None):
        self.m = _checked_int(m, "variable count", 1)
        self.ring = ring
        clean = {}
        if terms:
            for symmono, c in terms.items():
                if ring.is_zero(c):
                    continue
                for (i, nu), e in symmono:
                    _checked_int(i, "symbol index", 1)
                    _checked_int(e, "symbol exponent", 1)
                    if not isinstance(nu, tuple) or len(nu) != m or not any(nu):
                        raise ValueError(f"bad symbol monomial {nu!r}")
                    for x in nu:
                        _checked_int(x, "symbol monomial exponent", 0)
                if _symmono_mul((), symmono) != symmono:
                    raise ValueError(f"symbol monomial {symmono} is not canonical")
                clean[symmono] = c
        self.terms = clean

    @classmethod
    def _make(cls, m: int, ring: Ring, terms: dict) -> "GenPoly":
        """Trusted constructor: the caller guarantees well-formed, canonically
        sorted symbol monomials and nonzero ring elements (Ring.settle)."""
        self = object.__new__(cls)
        self.m, self.ring, self.terms = m, ring, terms
        return self

    def _ambient(self) -> tuple:
        return (self.m, self.ring)

    def _degree(self, symmono) -> Mono:
        return _symmono_degree(symmono, self.m)

    @classmethod
    def const(cls, c, m: int, ring: Ring) -> "GenPoly":
        return cls(m, ring, {(): c})

    @classmethod
    def symbol(cls, i: int, nu: Mono, m: int, ring: Ring) -> "GenPoly":
        return cls(m, ring, {(((i, tuple(nu)), 1),): ring.one})

    def __mul__(self, other: "GenPoly") -> "GenPoly":
        self._compat(other)
        out = {}
        get = out.get
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = _symmono_mul(ka, kb)
                out[key] = get(key, 0) + ca * cb
        return self._like(self.ring.settle(out, 1))

    def symbols(self):
        out = set()
        for symmono in self.terms:
            for sym, _ in symmono:
                out.add(sym)
        return out

    def is_primitive_alphabet(self) -> bool:
        return all(is_primitive(nu) for _, nu in self.symbols())

    def max_symbol_degree(self) -> int:
        """Largest total degree i*deg(nu) of an occurring symbol; 0 if none."""
        best = 0
        for i, nu in self.symbols():
            best = max(best, i * sum(nu))
        return best

    def sorted_terms(self):
        return _sorted_rows(self.terms, _factor_render, _TEXT)[0]

    def text(self) -> str:
        fmt = self.ring.format_coeff
        rows, frag = _sorted_rows(self.terms, _factor_render, _TEXT)
        return signed_text((fmt(c), "*".join(map(frag, symmono))) for symmono, c in rows)

    def __repr__(self) -> str:
        return f"GenPoly({self.text()})"


# integer core of the peeling recursion, shared across coefficient rings

@cache
def _reduce_alpha(alpha: AlphaIndex) -> tuple:
    """e_alpha as an integer combination of symbol monomials.

    Returned as a tuple of (symmono, int) pairs so it can live in a cache.
    """
    if not alpha:
        return (((), 1),)
    if len(alpha) == 1:
        mu, a = alpha[0]
        return (((((a, mu), 1),), 1),)
    mu_p, a_p = alpha[-1]  # largest support monomial
    rest = alpha[:-1]
    pivot_sym = (a_p, mu_p)

    acc: dict[tuple, int] = {}
    for symmono, c in _reduce_alpha(rest):
        key = _symmono_mul(symmono, ((pivot_sym, 1),))
        acc[key] = acc.get(key, 0) + c
    prod = _alpha_product_z(((mu_p, a_p),), rest, None)
    if prod.get(alpha) != 1:
        raise AssertionError("peeled product must contain the index once")
    for gamma, mult in prod.items():
        if gamma == alpha:
            continue
        if alpha_weight(gamma) >= alpha_weight(alpha):
            raise AssertionError("correction term fails to drop in weight")
        for symmono, c in _reduce_alpha(gamma):
            acc[symmono] = acc.get(symmono, 0) - mult * c
    return tuple((k, v) for k, v in acc.items() if v)


def reduce_to_monomial_es(x: MsfElement) -> GenPoly:
    """First stage: x as a polynomial in symbols e_i(mu), mu any monomial."""
    R = x.ring
    cs, den = R.lift(x.terms)
    out: dict[tuple, int] = {}
    get = out.get
    for alpha, c in cs.items():
        for symmono, k in _reduce_alpha(alpha):
            out[symmono] = get(symmono, 0) + c * k
    return GenPoly._make(x.m, R, R.settle(out, den))


@cache
def _primitive_symbol_z(sym, n) -> GenPoly:
    """The primitive form over Z of one symbol e_i(mu) in ambient n.

    For mu = nu^k, k >= 2, this is P_{i,k} at e_j -> E[j;nu]; symbols with
    index above a finite n are zero.
    """
    i, mu = sym
    nu, k = primitive_decompose(mu)
    terms = {}
    if n is INF or i <= n:
        if k == 1:
            terms[(((i, nu), 1),)] = 1
        else:
            # one nu throughout, so ascending j is the canonical symbol order
            for exps, c in plethysm_P(i, k).terms.items():
                if n is INF or len(exps) <= n:
                    terms[tuple(((j + 1, nu), e) for j, e in enumerate(exps) if e)] = c
    return GenPoly._make(len(mu), ZZ, terms)


@cache
def _primitive_image_z(symmono, n) -> GenPoly:
    """The primitive form over Z of a nonempty symbol monomial in ambient n."""
    if len(symmono) > 1:
        return _primitive_image_z(symmono[:-1], n) * _primitive_image_z(symmono[-1:], n)
    (sym, e), = symmono
    return _primitive_symbol_z(sym, n) ** e


def primitive_reduce(p: GenPoly, n=INF) -> GenPoly:
    """Second stage: only primitive symbol monomials survive.

    Each e_i(nu^k) with k >= 2 becomes P_{i,k} at e_j -> E[j;nu]; in a
    finite ambient all symbols with index above n are zero and are dropped
    before substituting.
    """
    R = p.ring
    cs, den = R.lift(p.terms)
    out: dict[tuple, int] = {}
    get = out.get
    for symmono, c in cs.items():
        if not symmono:
            out[()] = get((), 0) + c
            continue
        for k, v in _primitive_image_z(symmono, n).terms.items():
            out[k] = get(k, 0) + c * v
    return GenPoly._make(p.m, R, R.settle(out, den))


def rewrite(x: MsfElement) -> GenPoly:
    """x as a polynomial in the free generators E[i;nu], nu primitive."""
    return primitive_reduce(reduce_to_monomial_es(x), x.n)


@cache
def _evaluate_image_z(symmono, n, m: int) -> MsfElement:
    """prod e_i(nu)**e over a nonempty symbol monomial, over Z in ambient n."""
    if len(symmono) > 1:
        return _evaluate_image_z(symmono[:-1], n, m) * _evaluate_image_z(symmono[-1:], n, m)
    ((i, nu), e), = symmono
    return e_alpha([(nu, i)], n, m, ZZ, truncating=True) ** e


def evaluate(g: GenPoly, n) -> MsfElement:
    """Substitute E[i;nu] -> e_i(nu) and multiply out in ambient n."""
    _check_slots(n)
    m = g.m
    cs, den = g.ring.lift(g.terms)
    out: dict[AlphaIndex, int] = {}
    get = out.get
    for symmono, c in cs.items():
        if not symmono:
            out[()] = get((), 0) + c
            continue
        for a, v in _evaluate_image_z(symmono, n, m).terms.items():
            out[a] = get(a, 0) + c * v
    return MsfElement._make(n, m, g.ring, g.ring.settle(out, den))


def genpoly_json_text(g: GenPoly, check: str | None = None) -> str:
    """Canonical JSON of g, built in one pass over its sorted terms.

    check, when given, is the verdict of a round trip, written as a
    leading "check" member.  The text equals json.dumps of the dict form
    with sort_keys=True and separators=(",", ":").
    """
    fmt = g.ring.format_coeff
    rows, frag = _sorted_rows(g.terms, _factor_render, _JSON)
    terms = ",".join(['{"coeff":"%s","symbols":[%s]}' % (fmt(c), ",".join(map(frag, symmono)))
                      for symmono, c in rows])
    head = "" if check is None else f'"check":"{check}",'
    return f'{{{head}"m":{g.m},"ring":"{g.ring.to_string()}","terms":[{terms}]}}'


def genpoly_to_json(g: GenPoly) -> dict:
    """The JSON object of g, as genpoly_json_text writes it."""
    import json

    return json.loads(genpoly_json_text(g))


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
