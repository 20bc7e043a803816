"""Rewriting orbit-sum symbols into polynomials in the generators e_i(nu).

GenPoly is a polynomial in abstract symbols E[i;nu] = e_i(nu) over a
coefficient ring, graded by giving E[i;nu] multidegree i*deg(nu).  Three
alphabets share the type:

* the free-generator alphabet, nu primitive: what rewrite produces;
* the e_1 alphabet over the rationals, symbols E[1;mu] with mu arbitrary,
  used for the characteristic-zero relation generators;
* the classical e_i = E[i;(1)] of GenPoly(1, ZZ): newton_p (p_k in the
  e_i), e_in_powersums (e_h in the p_r) and plethysm_P (P_{h,k}).

The pipeline has two stages.  reduce_to_monomial_es applies the peeling
recursion: for an index with several support monomials, split off the
largest one as e_a(mu) times the rest and subtract the lower-weight
correction terms coming from the product formula; iterate.  The recursion
is ambient-independent because every index involved keeps weight at most
the input's.  primitive_reduce then replaces each symbol e_i(nu^k), k >= 2,
by P_{i,k} with E[j;(1)] renamed E[j;nu], dropping E[j;nu] with j > n
in a finite ambient.

As in msf, the GenPoly constructor and reference.genpoly_from_json
validate every symbol of every term, zero coefficients included: a symbol
monomial must list its symbols in the canonical order, each once, and a
boolean is refused as an index or exponent.  Arithmetic and the pipeline build
results through GenPoly._make, a direct slot store of terms that
Ring.settle has already cleared of zeros.

Caching contract: every cache here holds integer images, keyed by the
input and the ambient n (and m) but never by a coefficient ring.  The
structure constants are integers, so one image serves Z, Q and every Z/p:
_reduce_alpha gives e_alpha in the symbols e_i(mu), _primitive_image_z a
symbol monomial's primitive form in ambient n, and _evaluate_image_z the
orbit-sum expansion of a generator monomial in ambient n; each maps the
empty key to the unit.  The ring enters last, in _accumulate, shared by
reduce_to_monomial_es, primitive_reduce and evaluate: it lifts the
coefficients to integer numerators over one denominator (Ring.lift), adds
numerator times image into one dict of ints, and settles each sum into
the ring once (Ring.settle).

evaluates_to_zero answers whether evaluate(g, n) is zero without building
it, on Kronecker-packed integers.  Two more caches serve it, again keyed
by the ambient (n, m) and never by a ring: _orbit_coords, an append-only
coordinate index of the orbit-sum indices of each multidegree a, whose
positions never move; and _packed_evaluation, each generator monomial's
_evaluate_image_z image packed once into one int with a w-bit field per
position of its multidegree's index.  Those coefficients are orbit-sum
structure constants, and the packer checks that they are nonnegative.
Clearing one of the two caches without the other would misplace fields;
clear_caches empties both.  The coefficients are lifted (Ring.lift), in
[0, p) over Z/p as every constructor reduces them.  Per multidegree, the
width w is the least rung of 32, 64, 128, ... bits with
sum |c| * (largest image coefficient) < 2^(w-1), so each field of the
total T = sum c * packed image lies strictly inside +-2^(w-1).  Balanced
digits being unique, over Z and Q the evaluation vanishes exactly when
T == 0.  Over Z/p T need not be 0 for a true relation; its fields, all in
[0, 2^(w-1)), are read back and each is tested mod p.  This code is
route 1's own: relations packs route 2's images separately, so that one
fault cannot pass the same wrong relation on both routes.
"""

from __future__ import annotations

import struct
import sys
from fractions import Fraction
from functools import cache

from .coeffring import QQ, ZZ, Ring
from .monomial import Mono, grlex_key, is_primitive, primitive_decompose
from .msf import (_JSON, _TEXT, INF, AlphaIndex, MsfElement, _alpha_product_z,
                  _check_slots, _packed_degree, _sorted_rows, alpha_weight, e_alpha)
from .polyring import BASE_WIDTH, Sparse, _checked_int, signed_text

__all__ = [
    "GenPoly",
    "reduce_to_monomial_es",
    "primitive_reduce",
    "rewrite",
    "evaluate",
    "evaluates_to_zero",
    "newton_p",
    "e_in_powersums",
    "plethysm_P",
    "genpoly_json_text",
    "genpoly_texts",
    "genpoly_to_json",
]


def _symbol_key(sym):
    i, nu = sym
    return (grlex_key(nu), i)


def _symmono_mul(a, b) -> tuple:
    """Product of two symbol monomials, each a sorted tuple of (symbol, exp);
    a's order stands unless b brings a new symbol (sort by _symbol_key)."""
    if not a or not b:
        return a or b
    d = dict(a)
    size = len(d)
    for sym, e in b:
        d[sym] = d.get(sym, 0) + e
    if len(d) == size:
        return tuple(d.items())
    return tuple(sorted(d.items(), key=lambda t: (sum(t[0][1]), t[0][1], t[0][0])))


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
        p = ring.p
        if terms:
            for symmono, c in terms.items():
                spelled = []
                for (i, nu), e in symmono:
                    _checked_int(i, "symbol index", 1)
                    _checked_int(e, "symbol exponent", 1)
                    if not isinstance(nu, tuple) or len(nu) != m or not any(nu):
                        raise ValueError(f"bad symbol monomial {nu!r}")
                    for x in nu:
                        _checked_int(x, "symbol monomial exponent", 0)
                    spelled.append(((i, nu), e))
                # canonical: a tuple of factors, strictly ascending by _symbol_key
                keys = [_symbol_key(sym) for sym, _ in spelled]
                if tuple(spelled) != symmono or any(k >= k2 for k, k2 in zip(keys, keys[1:])):
                    raise ValueError(f"symbol monomial {symmono} is not canonical")
                if p is not None:
                    c %= p
                if not ring.is_zero(c):
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
        return genpoly_texts([self])[0]

    def __repr__(self) -> str:
        return f"GenPoly({self.text()})"


def genpoly_texts(gs) -> list:
    """The text of each generator polynomial in gs, all in one variable count.

    The union of their symbol monomials is put in canonical order and
    written once, and each polynomial's terms are then sorted by position
    in that order: one sorter setup for many small polynomials.
    """
    if len({g.m for g in gs}) > 1:
        raise ValueError("batched texts need one variable count")
    union = dict.fromkeys([s for g in gs for s in g.terms])
    rows, frag = _sorted_rows(union, _factor_render, _TEXT)
    keys = [s for s, _ in rows]
    order = dict(zip(keys, range(len(keys)))).__getitem__
    bodies = ["*".join(map(frag, s)) for s in keys]
    out = []
    for g in gs:
        fmt, terms = g.ring.format_coeff, g.terms
        out.append(signed_text([(fmt(terms[keys[i]]), bodies[i])
                                for i in sorted(map(order, terms))]))
    return out


# one alphabet: the classical e_i are the symbols E[i;(1)] of GenPoly(1, ZZ)

@cache
def newton_p(k: int) -> GenPoly:
    """The power sum p_k in the E[i;(1)] via the Newton recurrence
    p_k = e_1 p_{k-1} - e_2 p_{k-2} + ... + (-1)^{k-1} k e_k."""
    if k < 1:
        raise ValueError("p_k needs k >= 1; p_0 depends on the variable count")
    if k == 1:
        return GenPoly.symbol(1, (1,), 1, ZZ)
    acc = GenPoly.zero(1, ZZ)
    for i in range(1, k):
        t = GenPoly.symbol(i, (1,), 1, ZZ) * newton_p(k - i)
        acc = acc + (t if i % 2 == 1 else -t)
    ek = GenPoly.symbol(k, (1,), 1, ZZ).scale(k)
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
def plethysm_P(h: int, k: int) -> GenPoly:
    """The polynomial P_{h,k} with e_h(x_1^k, x_2^k, ...) = P_{h,k}(e_1, e_2, ...),
    e_i spelled E[i;(1)].

    Computed through the power sums: e_h is a rational combination of
    products of p_r, the substitution x -> x^k sends p_r to p_{rk}, and
    newton_p writes those back in the e_i.  Homogeneous of degree h*k,
    with integer coefficients although the detour is rational: the sums
    are kept as integer numerators over one denominator.
    """
    if h < 0 or k < 1:
        raise ValueError("need h >= 0 and k >= 1")
    prods = {(): GenPoly.one(1, ZZ)}

    def prod(part):  # prod newton_p(r*k) over part, sharing prefixes
        if part not in prods:
            prods[part] = prod(part[:-1]) * newton_p(part[-1] * k)
        return prods[part]

    cs, den = QQ.lift(e_in_powersums(h))
    out: dict[tuple, int] = {}
    get = out.get
    for part, c in cs.items():
        for symmono, v in prod(part).terms.items():
            out[symmono] = get(symmono, 0) + c * v
    if any(v % den for v in out.values()):
        raise AssertionError(f"non-integral coefficient in P_{h},{k}")
    return GenPoly._make(1, ZZ, {symmono: v // den for symmono, v in out.items() if v})


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


def _accumulate(x: Sparse, image) -> dict:
    """The terms of sum c * image(key) over x's terms, in x's ring;
    image(key) gives the (key, int) pairs of a cached integer image."""
    R = x.ring
    cs, den = R.lift(x.terms)
    out: dict = {}
    get = out.get
    for key, c in cs.items():
        for k, v in image(key):
            out[k] = get(k, 0) + c * v
    return R.settle(out, den)


def reduce_to_monomial_es(x: MsfElement) -> GenPoly:
    """First stage: x as a polynomial in symbols e_i(mu), mu any monomial."""
    return GenPoly._make(x.m, x.ring, _accumulate(x, _reduce_alpha))


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
            # E[j;(1)] -> E[j;nu]: one nu throughout, so ascending j stays
            # canonical, and the last factor has the largest j
            for symmono, c in plethysm_P(i, k).terms.items():
                if n is INF or symmono[-1][0][0] <= n:
                    terms[tuple([((j, nu), e) for (j, _), e in symmono])] = c
    return GenPoly._make(len(mu), ZZ, terms)


@cache
def _primitive_image_z(symmono, n, m: int) -> GenPoly:
    """The primitive form over Z of a symbol monomial in ambient n."""
    if not symmono:
        return GenPoly.one(m, ZZ)
    if len(symmono) > 1:
        return _primitive_image_z(symmono[:-1], n, m) * _primitive_image_z(symmono[-1:], n, m)
    (sym, e), = symmono
    return _primitive_symbol_z(sym, n) ** e


def primitive_reduce(p: GenPoly, n=INF) -> GenPoly:
    """Second stage: only primitive symbol monomials survive.

    Each e_i(nu^k) with k >= 2 becomes P_{i,k} at e_j -> E[j;nu]; in a
    finite ambient all symbols with index above n are zero and are dropped
    before substituting.
    """
    m = p.m
    return GenPoly._make(m, p.ring, _accumulate(
        p, lambda symmono: _primitive_image_z(symmono, n, m).terms.items()))


def rewrite(x: MsfElement) -> GenPoly:
    """x as a polynomial in the free generators E[i;nu], nu primitive."""
    return primitive_reduce(reduce_to_monomial_es(x), x.n)


@cache
def _evaluate_image_z(symmono, n, m: int) -> MsfElement:
    """prod e_i(nu)**e over a symbol monomial, over Z in ambient n."""
    if not symmono:
        return MsfElement.one(n, m, ZZ)
    if len(symmono) > 1:
        return _evaluate_image_z(symmono[:-1], n, m) * _evaluate_image_z(symmono[-1:], n, m)
    ((i, nu), e), = symmono
    return e_alpha([(nu, i)], n, m, ZZ, truncating=True) ** e


def evaluate(g: GenPoly, n) -> MsfElement:
    """Substitute E[i;nu] -> e_i(nu) and multiply out in ambient n."""
    _check_slots(n)
    m = g.m
    return MsfElement._make(n, m, g.ring, _accumulate(
        g, lambda symmono: _evaluate_image_z(symmono, n, m).terms.items()))


# the zero test of evaluate on Kronecker-packed images (module docstring)

ZERO_TEST_BITS = 32  # the first rung of the doubling ladder of field widths

# memoryview formats that read native w-bit unsigned fields, by w
_NATIVE_FIELDS = {struct.calcsize(f) * 8: f for f in "IQ"}


@cache
def _orbit_coords(n, m: int, a: Mono) -> dict:
    """The append-only coordinate index of the orbit-sum indices of
    multidegree a in ambient (n, m): positions count up in order of first
    appearance and never move, so an image packed while the index was
    smaller stays valid."""
    return {}


@cache
def _packed_evaluation(symmono, n, m: int, w: int):
    """(packed, top, a) for the integer image of a symbol monomial in
    ambient n, or None when the image is zero.

    a is the image's multidegree, top its largest coefficient, and packed
    the int with the coefficient of each orbit sum in the w-bit field at
    that index's position in a's index; packed is None when top does not
    fit below the top bit of a field.
    """
    # the image itself stays cached: it is also the prefix of longer monomials
    img = _evaluate_image_z(symmono, n, m).terms
    if not img:
        return None
    a = _symmono_degree(symmono, m)
    if min(img.values()) < 0:
        raise AssertionError("orbit-sum structure constants must be nonnegative")
    top = max(img.values())
    if top >> (w - 1):
        return None, top, a
    pos = _orbit_coords(n, m, a)
    at = [pos.setdefault(alpha, len(pos)) for alpha in img]
    fields = [0] * (max(at) + 1)
    for i, v in zip(at, img.values()):
        fields[i] = v
    b = w // 8
    return int.from_bytes(b"".join([v.to_bytes(b, "little") for v in fields]), "little"), top, a


def _fields_of(total: int, w: int):
    """The w-bit fields of a nonnegative int, in some order."""
    b = w // 8
    buf = total.to_bytes(-(-total.bit_length() // w) * b, sys.byteorder)
    if w in _NATIVE_FIELDS:
        return memoryview(buf).cast(_NATIVE_FIELDS[w])
    return [int.from_bytes(buf[i:i + b], sys.byteorder) for i in range(0, len(buf), b)]


def evaluates_to_zero(g: GenPoly, n) -> bool:
    """Whether evaluate(g, n) is zero, decided on packed images without
    building the evaluation (module docstring)."""
    _check_slots(n)
    m, p = g.m, g.ring.p
    cs, _ = g.ring.lift(g.terms)  # over Z/p already in [0, p)
    groups: dict = {}
    for symmono, c in cs.items():
        img = _packed_evaluation(symmono, n, m, ZERO_TEST_BITS)
        if img is not None:
            groups.setdefault(img[2], []).append((symmono, c, img))
    for terms in groups.values():
        w = ZERO_TEST_BITS
        bound = sum([abs(c) * img[1] for _, c, img in terms])
        while bound >> (w - 1):
            w *= 2
        total = sum([c * (img[0] if w == ZERO_TEST_BITS else _packed_evaluation(s, n, m, w)[0])
                     for s, c, img in terms])
        if total and (p is None or any(v % p for v in _fields_of(total, w))):
            return False
    return True


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
