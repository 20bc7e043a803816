"""Rewriting orbit-sum symbols into polynomials in the generators e_i(nu).

GenPoly is a polynomial in abstract symbols E[i;nu] = e_i(nu) over a
coefficient ring, graded by giving E[i;nu] multidegree i*deg(nu).  Three
alphabets share the type:

* the free-generator alphabet, nu primitive: what rewrite produces;
* the e_1 alphabet over the rationals, symbols E[1;mu] with mu arbitrary,
  used for the characteristic-zero relation generators;
* the classical e_i = E[i;(1)] of GenPoly(1, ZZ): newton_p (p_k in the
  e_i) and plethysm_P (P_{h,k}), both from Newton's identity.

rewrite is one recursion, the peeling identity

    e_alpha = e_rest * e_a(mu) - sum mult * e_beta,

which splits off the largest support monomial mu of alpha and subtracts
the lower-weight correction terms of the product formula.  primitive_reduce
substitutes P_{i,k} at E[j;(1)] -> E[j;nu] for each e_i(nu^k), k >= 2, and
zero for E[j;nu], j > n, in a finite ambient.  It is a ring map, so it
commutes with the identity: the recursion substitutes each pivot e_a(mu)
as it meets it and cancels at every level.  The indices met keep weight at
most the input's and do not depend on n; without the substitution the
recursion gives reduce_to_monomial_es.

As in msf, the GenPoly constructor and reference.genpoly_from_json
validate every symbol of every term, zero coefficients included: a symbol
monomial must list its symbols in the canonical order, each once, and a
boolean is refused as an index or exponent.  Arithmetic and the pipeline build
results through GenPoly._make, a direct slot store of terms that
Ring.settle has already cleared of zeros.

Interned keys: a GenPoly stores its terms under small ints, since Python
hashes a nested symbol-monomial tuple again at every lookup.  One
append-only table per process (_SYMMONOS, inverse _IDS) gives each symbol
monomial an id on first sight, 0 for the empty one; an id never names a
second monomial.  GenPoly.terms is a read-only view that decodes ids, as
NPoly.terms decodes packed exponents.  Ids never leave the process: a
GenPoly pickles its symbol monomials, and the writers read each id's row
of msf._rows, built from the symbol monomial alone, so no output byte
depends on an id.

Caching contract: every cache here holds integer images, keyed by the
input and the ambient n (and m) but never by a coefficient ring.  The
structure constants are integers, so one image serves Z, Q and every Z/p.
_reduce_alpha(id, n), keyed by the id of alpha in msf's table of indices
and the ambient, gives e_alpha as a dict id -> int: its primitive form in
ambient n, or with n None the monomial e's in symbols e_i(mu);
_primitive_symbol_z(sym, n), one symbol's primitive form; and
_evaluate_image_z, keyed by a symbol monomial's id, the orbit-sum
expansion of a generator monomial in ambient n, an MsfElement keyed by
index ids; id 0 maps to the unit.  It multiplies the images of the ids
of all factors but the last and of the last.
The pair table (_id_products) holds ids only, no ring: a plain dict whose
plain-dict row ka maps kb to the id of the product of their symbol
monomials.  _products, the one product of id-keyed dicts, is its only
reader, behind GenPoly.__mul__ and the peeling recursion's product by its
pivot; a miss multiplies the monomials (_symmono_mul) and interns the
product, so ids are still given in the order the products are first met.
rewrite thus adds into dicts keyed by ints, and no symbol monomial is
decoded on the way.  clear_caches empties the pair table but keeps the
intern table, so an id in any cache still names the monomial it was
computed for.  The ring enters last, in _accumulate, shared by rewrite,
reduce_to_monomial_es, primitive_reduce and evaluate: it lifts the
coefficients to integer numerators over one denominator (Ring.lift), adds
numerator times image into one dict of ints, and settles each sum into
the ring once (Ring.settle).

evaluate is route 1 of relations.verify_relation: a relation vanishes
there when evaluate(g, n).is_zero.  Route 2 (relations.genpoly_expand)
shares none of this code, so that one fault cannot pass the same wrong
relation on both routes.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import count
from math import prod

from .coeffring import ZZ, Ring
from .monomial import Mono, grlex_key, is_primitive, primitive_decompose
from .msf import (_ALPHAS, _JSON, _TEXT, INF, MsfElement, _alpha_product_z, _check_slots,
                  _intern_alpha, _key_field, _packed_degree, _rows, _sorted_items, _split,
                  _written, e_alpha)
from .polyring import BASE_WIDTH, Sparse, TermsView, _checked_int, signed_text

__all__ = [
    "GenPoly",
    "reduce_to_monomial_es",
    "primitive_reduce",
    "rewrite",
    "evaluate",
    "newton_p",
    "plethysm_P",
    "genpoly_json_text",
    "genpoly_texts",
    "genpoly_to_json",
]


# the intern table: an append-only list of symbol monomials and its inverse;
# an id is a position in the list and never names a second monomial
_SYMMONOS: list = [()]
_IDS: dict = {(): 0}


def _intern(symmono) -> int:
    """The id of a canonical symbol monomial, assigned on first sight."""
    k = _IDS.get(symmono)
    if k is None:
        k = _IDS[symmono] = len(_SYMMONOS)
        _SYMMONOS.append(symmono)
    return k


def _decoded(d: dict) -> dict:
    """The terms of an id-keyed dict, keyed by symbol monomials."""
    return dict(zip(map(_SYMMONOS.__getitem__, d), d.values()))


@cache
def _id_products() -> dict:
    """The pair table of products of symbol-monomial ids; ids only."""
    return {}


def _products(xd: dict, yd: dict) -> dict:
    """The sums of c * c' over the product ids of all pairs of terms of two
    id-keyed dicts, zero sums kept; a pair met first fills its entry of the
    pair table (module docstring)."""
    out: dict = {}
    get = out.get
    inner = list(yd.items())
    table = _id_products()
    for ka, ca in xd.items():
        row = table.get(ka)
        if row is None:
            row = table[ka] = {}
        for kb, cb in inner:
            k = row.get(kb)
            if k is None:
                k = row[kb] = _intern(_symmono_mul(_SYMMONOS[ka], _SYMMONOS[kb]))
            out[k] = get(k, 0) + ca * cb
    return out


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
    return (b"".join(map(_key_field, (sum(nu), *nu, i, e))), deg, _packed_degree(deg, BASE_WIDTH),
            f"E[{i};({nus})]" + (f"^{e}" if e > 1 else ""),
            '{"exp":%d,"i":%d,"nu":[%s]}' % (e, i, nus))


# the forms of the writers (msf._rows); a JSON fragment follows the coefficient
_TEXT_FORM = (_SYMMONOS.__getitem__, _factor_render, "%s", "*", _TEXT, "")
_JSON_FORM = (_SYMMONOS.__getitem__, _factor_render, '","symbols":[%s]}', ",", _JSON,
              '","symbols":[]}')


def _symmono_degree(symmono, m: int) -> Mono:
    deg = [0] * m
    for (i, nu), e in symmono:
        for t, x in enumerate(nu):
            deg[t] += i * x * e
    return tuple(deg)


class GenPoly(Sparse):
    """Polynomial in the abstract symbols E[i;nu] over a Ring, its terms
    stored in _d under interned symbol-monomial ids (module docstring)."""

    __slots__ = ("m", "ring", "_d")

    def __init__(self, m: int, ring: Ring, terms=None):
        self.m = _checked_int(m, "variable count", 1)
        self.ring = ring
        clean = {}
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
                c = ring.coerce(c)
                if c:
                    clean[_intern(symmono)] = c
        self._d = clean

    @classmethod
    def _make(cls, m: int, ring: Ring, d: dict) -> "GenPoly":
        """Trusted constructor: the caller guarantees ids of well-formed
        symbol monomials and nonzero ring elements (Ring.settle)."""
        self = object.__new__(cls)
        self.m, self.ring, self._d = m, ring, d
        return self

    def __reduce__(self):
        # ids are local to a process: pickle the symbol monomials
        return (GenPoly, (self.m, self.ring, _decoded(self._d)))

    @property
    def terms(self) -> TermsView:
        """The terms as a read-only mapping from symbol monomials."""
        return TermsView(self._d, _SYMMONOS.__getitem__, _IDS.get)

    def _ambient(self) -> tuple:
        return (self.m, self.ring)

    def _degree(self, k: int) -> Mono:
        return _symmono_degree(_SYMMONOS[k], self.m)

    @classmethod
    def const(cls, c, m: int, ring: Ring) -> "GenPoly":
        return cls(m, ring, {(): c})

    @classmethod
    def symbol(cls, i: int, nu: Mono, m: int, ring: Ring) -> "GenPoly":
        return cls(m, ring, {(((i, tuple(nu)), 1),): ring.one})

    def __mul__(self, other: "GenPoly") -> "GenPoly":
        self._compat(other)
        return self._like(self.ring.settle(_products(self._d, other._d), 1))

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
        return _sorted_items(self._d, _TEXT_FORM)

    def text(self) -> str:
        return genpoly_texts([self])[0]

    def __repr__(self) -> str:
        return f"GenPoly({self.text()})"


def genpoly_texts(gs) -> list:
    """The text of each generator polynomial in gs, all in one variable count.

    The union of their symbol monomials gets its rows in one batch and is
    sorted once; each polynomial's terms are then sorted by position in it.
    """
    if len({g.m for g in gs}) > 1:
        raise ValueError("batched texts need one variable count")
    ids = set().union(*[g._d for g in gs])
    rows = _rows(ids, _TEXT_FORM)
    place = dict(zip(sorted(ids, key=rows[0].__getitem__), count())).__getitem__
    return [signed_text(zip(*_written(g._d, rows, g.ring.format_coeff, place))) for g in gs]


# one alphabet: the classical e_i are the symbols E[i;(1)] of GenPoly(1, ZZ)

@lru_cache(maxsize=None, typed=True)
def newton_p(k: int) -> GenPoly:
    """The power sum p_k in the E[i;(1)] via the Newton recurrence
    p_k = e_1 p_{k-1} - e_2 p_{k-2} + ... + (-1)^{k-1} k e_k."""
    _checked_int(k, "power-sum index", 1)  # p_0 depends on the variable count
    if k == 1:
        return GenPoly.symbol(1, (1,), 1, ZZ)
    acc = GenPoly.zero(1, ZZ)
    for i in range(1, k):
        t = GenPoly.symbol(i, (1,), 1, ZZ) * newton_p(k - i)
        acc = acc + (t if i % 2 == 1 else -t)
    ek = GenPoly.symbol(k, (1,), 1, ZZ).scale(k)
    return acc + (ek if (k - 1) % 2 == 0 else -ek)


@lru_cache(maxsize=None, typed=True)
def plethysm_P(h: int, k: int) -> GenPoly:
    """The polynomial P_{h,k} with e_h(x_1^k, x_2^k, ...) = P_{h,k}(e_1, e_2, ...),
    e_i spelled E[i;(1)].

    Newton's identity in the variables x^k, whose r-th power sum is
    p_{rk}: h P_{h,k} = sum_{r=1..h} (-1)^{r-1} p_{rk} P_{h-r,k}, with
    newton_p writing p_{rk} in the e_i.  One integer recursion and an
    exact division by h.  Homogeneous of degree h*k.
    """
    _checked_int(h, "plethysm degree", 0)
    _checked_int(k, "plethysm power", 1)
    if h == 0:
        return GenPoly.one(1, ZZ)
    acc = GenPoly.zero(1, ZZ)
    for r in range(1, h + 1):
        t = newton_p(r * k) * plethysm_P(h - r, k)
        acc = acc + (t if r % 2 == 1 else -t)
    if any(v % h for v in acc._d.values()):
        raise AssertionError(f"non-integral coefficient in P_{h},{k}")
    return GenPoly._make(1, ZZ, {key: v // h for key, v in acc._d.items()})


# integer core of the peeling recursion, shared across coefficient rings

@cache
def _reduce_alpha(ka: int, n) -> dict:
    """e_alpha, alpha of id ka, as an integer combination of symbol
    monomials: its primitive form in ambient n, or with n None the
    monomial e's in symbols e_i(mu).

    A dict id -> int, smaller than a tuple of pairs; callers only read it.
    """
    alpha = _ALPHAS[ka]
    if not alpha:
        return {0: 1}
    mu_p, a_p = alpha[-1]  # largest support monomial
    pivot = _primitive_symbol_z((a_p, mu_p), n)._d
    if len(alpha) == 1:
        return dict(pivot)
    rest = _intern_alpha(alpha[:-1])
    acc = _products(_reduce_alpha(rest, n), pivot)
    weight = _split(ka)[2]
    once = 0
    for kg, mult in _alpha_product_z(_intern_alpha(alpha[-1:]), rest, None):
        if kg == ka:
            once = mult
            continue
        if _split(kg)[2] >= weight:
            raise AssertionError("correction term fails to drop in weight")
        for k, c in _reduce_alpha(kg, n).items():
            acc[k] = acc.get(k, 0) - mult * c
    if once != 1:
        raise AssertionError("peeled product must contain the index once")
    return {k: v for k, v in acc.items() if v}


def _accumulate(x: Sparse, image) -> dict:
    """The terms of sum c * image(key) over x's terms, in x's ring;
    image(key) gives the (key, int) pairs of an integer image."""
    R = x.ring
    cs, den = R.lift(x._d)
    out: dict = {}
    get = out.get
    for key, c in cs.items():
        for k, v in image(key):
            out[k] = get(k, 0) + c * v
    return R.settle(out, den)


def reduce_to_monomial_es(x: MsfElement) -> GenPoly:
    """x as a polynomial in symbols e_i(mu), mu any monomial: the peeling
    recursion alone."""
    return GenPoly._make(x.m, x.ring, _accumulate(x, lambda k: _reduce_alpha(k, None).items()))


@cache
def _primitive_symbol_z(sym, n) -> GenPoly:
    """The primitive form over Z of one symbol e_i(mu) in ambient n; with
    n None, the symbol itself.

    For mu = nu^k, k >= 2, this is P_{i,k} at e_j -> E[j;nu]; symbols with
    index above a finite n are zero.
    """
    i, mu = sym
    if n is None:
        return GenPoly._make(len(mu), ZZ, {_intern(((sym, 1),)): 1})
    nu, k = primitive_decompose(mu)
    terms = {}
    if n is INF or i <= n:
        if k == 1:
            terms[_intern((((i, nu), 1),))] = 1
        else:
            # E[j;(1)] -> E[j;nu]: one nu throughout, so ascending j stays
            # canonical, and the last factor has the largest j
            for symmono, c in plethysm_P(i, k).terms.items():
                if n is INF or symmono[-1][0][0] <= n:
                    terms[_intern(tuple([((j, nu), e) for (j, _), e in symmono]))] = c
    return GenPoly._make(len(mu), ZZ, terms)


def primitive_reduce(p: GenPoly, n=INF) -> GenPoly:
    """The ring map onto primitive symbols: each e_i(nu^k) with k >= 2
    becomes P_{i,k} at e_j -> E[j;nu]; in a finite ambient all symbols
    with index above n are zero and are dropped before substituting.

    rewrite applies this map inside the peeling; here it is applied to a
    whole polynomial, one uncached product per term.
    """
    _check_slots(n)
    one = GenPoly.one(p.m, ZZ)
    return GenPoly._make(p.m, p.ring, _accumulate(p, lambda k: prod(
        [_primitive_symbol_z(sym, n) ** e for sym, e in _SYMMONOS[k]], start=one)._d.items()))


def rewrite(x: MsfElement) -> GenPoly:
    """x as a polynomial in the free generators E[i;nu], nu primitive."""
    return GenPoly._make(x.m, x.ring, _accumulate(x, lambda k: _reduce_alpha(k, x.n).items()))


@cache
def _evaluate_image_z(k: int, n, m: int) -> MsfElement:
    """prod e_i(nu)**e over the symbol monomial of id k, over Z in ambient n."""
    symmono = _SYMMONOS[k]
    if not symmono:
        return MsfElement.one(n, m, ZZ)
    if len(symmono) > 1:
        return (_evaluate_image_z(_intern(symmono[:-1]), n, m)
                * _evaluate_image_z(_intern(symmono[-1:]), n, m))
    ((i, nu), e), = symmono
    if n is not INF and i > n:  # e_i(nu) vanishes
        return MsfElement.zero(n, m, ZZ)
    return e_alpha([(nu, i)], n, m, ZZ) ** e


def evaluate(g: GenPoly, n) -> MsfElement:
    """Substitute E[i;nu] -> e_i(nu) and multiply out in ambient n."""
    _check_slots(n)
    m = g.m
    return MsfElement._make(n, m, g.ring, _accumulate(
        g, lambda k: _evaluate_image_z(k, n, m)._d.items()))


def genpoly_json_text(g: GenPoly, check: str | None = None) -> str:
    """Canonical JSON of g, built in one pass over its sorted terms.

    check, when given, is the verdict of a round trip, written as a
    leading "check" member.  The text equals json.dumps of the dict form
    with sort_keys=True and separators=(",", ":").
    """
    cs, frags = _written(g._d, _rows(g._d, _JSON_FORM), g.ring.format_coeff)
    terms = ",".join(map('{"coeff":"%s%s'.__mod__, zip(cs, frags)))
    head = "" if check is None else f'"check":"{check}",'
    return f'{{{head}"m":{g.m},"ring":"{g.ring.to_string()}","terms":[{terms}]}}'


def genpoly_to_json(g: GenPoly) -> dict:
    """The JSON object of g, as genpoly_json_text writes it."""
    import json

    return json.loads(genpoly_json_text(g))
