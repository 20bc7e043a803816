"""The algebra of multisymmetric functions in the orbit-sum basis.

An element is a finite R-linear combination of basis symbols e_alpha, where
alpha assigns a multiplicity to finitely many positive monomials in m
variables.  With n slots the symbols of weight |alpha| <= n form a module
basis of the invariant ring; the weight cutoff disappears in the inverse
limit (ambient INF).

The product of two basis symbols is again a combination of basis symbols,
with structure constants given by counting nonnegative integer tables with
prescribed row and column margins: a table gamma with rows indexed by the
support of alpha (plus a 0-row) and columns by the support of beta (plus a
0-column) contributes the symbol on arguments

    f_i   with multiplicity gamma_{i0},
    g_j   with multiplicity gamma_{0j},
    f_i*g_j with multiplicity gamma_{ij},

equal arguments being merged with a multinomial factor.  In a finite
ambient only tables of total sum <= n survive.  All structure constants are
computed over Z and embedded into R at the end, so they can vanish in
positive characteristic.

Which tables exist depends only on the multiplicity vectors of alpha and
beta, so the rule is split in two cached steps:

* _margin_tables(avec, bvec, min_inner) enumerates the tables once per
  shape, each as its argument list over slots f_i, g_j and f_i*g_j;
* _alpha_product_z(ka, kb, cap) builds the k+h+kh candidate monomials
  of one pair of index ids and merges each table's arguments in place:
  sorted by grlex, equal monomials are adjacent.  It returns the
  (id, structure constant) pairs of the product, in the order of the
  first table that gives each index.

Interned indices: an MsfElement stores its terms under small ints, since
Python hashes a nested index tuple again at every lookup.  One
append-only table per process (_ALPHAS, inverse _ALPHA_IDS) gives each
index an id on first sight, 0 for the empty one; an id never names a
second index.  MsfElement.terms is a read-only view that decodes ids, as
GenPoly.terms does for symbol monomials.  Ids never leave the process:
an MsfElement pickles its indices, and a writer's row of an id is built
from the index alone, so no output byte depends on an id.

Caching contract: every cache here is keyed by index ids (or by
multiplicity vectors), the ambient where it matters, and never by a
coefficient ring; the structure constants are integers, so one entry
serves Z, Q and every Z/p.  _split gives the (monomials, multiplicities,
weight) of an id once, for the kernel, the weights of the product, the
cutoffs and the expansion; _expand_alpha, keyed by id, n, m and a field
width, gives the packed orbit-sum keys; _spelled_ids gives the (id,
weight) of each index spelling element_from_json has accepted.
clear_caches keeps the table, so an id in any cache, here or in rewrite,
still names the index it was computed for.

The writers sort ids by row (_rows), filled once per id and form per
process: a sort key and a fragment, each in a dict of the form.  The key
is one bytes string, so the sort compares ids by memcmp: a head for the
multidegree (its m + 1 one-byte fields at BASE_WIDTH, or 0x80 and the
multidegree repacked in fields too wide to carry at its total), then the
key fields of the parts' render records, a prefix first.  Rows hold no
ring or ambient, so a write formats only the coefficients.

Validation happens once, at the boundary: the MsfElement constructor,
make_alpha, e_alpha and element_from_json check every index, and refuse a
boolean as an exponent or multiplicity; element_from_json validates each
distinct all-int spelling once per process and checks its weight against
the ambient on every load.  Arithmetic builds its results through the
trusted MsfElement._make, a direct slot store of an id-keyed dict: its
callers add integer numerators into one dict and settle it into the ring
once (Ring.lift and Ring.settle, or polyring.Sparse for sums and
scaling), and guarantee ids of canonical indices of weight at most n.
Other modules build one basis symbol of a trusted index through
_basis_symbol, so none of them names the table.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache
from itertools import accumulate, chain, combinations, compress, filterfalse, repeat
from math import comb
from operator import add, itemgetter

from .coeffring import Ring
from .monomial import Mono, monomials_up_to
from .polyring import (BASE_WIDTH, AmbientMismatch, NPoly, Sparse, TermsView, _checked_int,
                       _guard_bits, key_width, pack_key, signed_text)

INF = float("inf")

__all__ = [
    "INF",
    "AmbientMismatch",
    "WeightExceedsAmbient",
    "AlphaIndex",
    "make_alpha",
    "alpha_weight",
    "alpha_multidegree",
    "mono_text",
    "alpha_text",
    "MsfElement",
    "e_alpha",
    "alphas_of_multidegree",
    "basis_alphas",
    "element_json_text",
    "element_to_json",
    "element_from_json",
]


class WeightExceedsAmbient(Exception):
    """Requested basis symbol vanishes in this ambient (weight > n)."""


AlphaIndex = tuple  # tuple of (Mono, mult), sorted strictly by grlex


def make_alpha(pairs) -> AlphaIndex:
    """Canonical AlphaIndex from (monomial, multiplicity) pairs."""
    seen = {}
    m = None
    for mu, mult in pairs:
        mu = tuple(mu)
        if m is None:
            m = len(mu)
        elif len(mu) != m:
            raise ValueError("mixed variable counts in one index")
        if not any([_checked_int(e, "exponent", 0) for e in mu]):
            raise ValueError(f"support monomial {mu!r} is constant")
        _checked_int(mult, "multiplicity", 1)
        if mu in seen:
            raise ValueError(f"repeated support monomial {mu}")
        seen[mu] = mult
    return tuple([(mu, seen[mu]) for _, mu in sorted([(sum(mu), mu) for mu in seen])])


# the intern table: an append-only list of indices and its inverse; an id
# is a position in the list and never names a second index
_ALPHAS: list = [()]
_ALPHA_IDS: dict = {(): 0}


def _intern_alpha(alpha: AlphaIndex) -> int:
    """The id of a canonical index, assigned on first sight."""
    k = _ALPHA_IDS.get(alpha)
    if k is None:
        k = _ALPHA_IDS[alpha] = len(_ALPHAS)
        _ALPHAS.append(alpha)
    return k


def _decoded_alphas(d: dict) -> dict:
    """The terms of an id-keyed dict, keyed by indices."""
    return dict(zip(map(_ALPHAS.__getitem__, d), d.values()))


@cache
def _split(k: int) -> tuple:
    """(monomials, multiplicities, weight) of the index of id k."""
    alpha = _ALPHAS[k]
    monos, mults = zip(*alpha) if alpha else ((), ())
    return monos, mults, sum(mults)


def alpha_weight(alpha: AlphaIndex) -> int:
    return sum(mult for _, mult in alpha)


def alpha_multidegree(alpha: AlphaIndex, m: int) -> Mono:
    deg = [0] * m
    for mu, mult in alpha:
        for i, e in enumerate(mu):
            deg[i] += mult * e
    return tuple(deg)


def mono_text(mu: Mono) -> str:
    if not any(mu):
        return "1"
    return "*".join(
        f"y{i+1}" + (f"^{e}" if e > 1 else "")
        for i, e in enumerate(mu) if e
    )


def alpha_text(alpha: AlphaIndex) -> str:
    return "e(%s)" % ", ".join([_pair_render(p)[_TEXT] for p in alpha]) if alpha else "1"


# Render records: everything the writers need of one support pair (here) or
# one symbol factor (rewrite._factor_render), as a flat tuple: the fields of
# the part's key part as one sort key (_key_field each), the part's
# multidegree, that multidegree packed at BASE_WIDTH, and its text and JSON
# fragments.  Records hold no ring or ambient.
_KEY, _DEGREE, _PACKED, _TEXT, _JSON = range(5)


def _key_field(v: int) -> bytes:
    """A nonnegative int as one field of a bytes sort key: its length, then
    its big-endian digits; a length of 255 or more is 0xff and then the
    length as a field.  Prefix-free, and bytes order is integer order, so
    joined fields compare as the tuple of their values does."""
    digits = v.to_bytes((v.bit_length() + 7) // 8, "big")
    size = len(digits)
    return (bytes((size,)) if size < 255 else b"\xff" + _key_field(size)) + digits


@cache
def _pair_render(pair) -> tuple:
    """Render record of a support pair (mu, mult); key part (deg mu, mu, mult)."""
    mu, mult = pair
    deg = tuple([e * mult for e in mu])
    return (b"".join(map(_key_field, (sum(mu), *mu, mult))), deg,
            _packed_degree(deg, BASE_WIDTH), f"{mono_text(mu)}:{mult}",
            '{"mono":[%s],"mult":%d}' % (",".join(map(str, mu)), mult))


def _packed_degree(deg, w: int) -> int:
    """A multidegree as one int: its total above one w-bit field per entry,
    the first entry highest, so integer order is grlex order."""
    key = sum(deg)
    for d in deg:
        key = key << w | d
    return key


# A form spells the ids of one table: (decode, render, template, separator,
# record field, fragment of id 0); template % separator.join(part fields).
_TEXT_FORM = (_ALPHAS.__getitem__, _pair_render, "e(%s)", ", ", _TEXT, "")
_JSON_FORM = (_ALPHAS.__getitem__, _pair_render, '{"alpha":[%s],"coeff":"', ",", _JSON,
              '{"alpha":[],"coeff":"')


@cache
def _form_rows(form) -> tuple:
    """The rows of the ids written in one form (module docstring), as two
    dicts: id -> sort key and id -> fragment."""
    return {0: b""}, {0: form[-1]}


def _rows(ids, form) -> tuple:
    """The rows of a form, after each of ids that lacks its row gets it:
    one batch of C loops over the records of all their parts."""
    keys, frags = rows = _form_rows(form)
    new = [*filterfalse(keys.__contains__, ids)]
    if new:
        decode, render, template, sep, field, _ = form
        parts = [*map(decode, new)]
        recs = [*map(render, chain.from_iterable(parts))]
        ends = [*accumulate(map(len, parts))]
        cuts = [*map(slice, [0, *ends], ends)]
        packed = [*map(itemgetter(_PACKED), recs)]
        degrees = [*map(sum, map(packed.__getitem__, cuts))]
        # the head: the packed multidegree's m + 1 one-byte fields, the top
        # one below 0x80; from a total of 2^(BASE_WIDTH-1) on a field may
        # carry, so such a multidegree is repacked wider and written after
        # 0x80, above every narrow head
        size = len(recs[0][_DEGREE]) + 1
        wide = [*compress(range(len(degrees)), map((1 << BASE_WIDTH * size - 1).__le__, degrees))]
        for i in wide:
            degrees[i] = 0  # its head is set below
        heads = [*map(int.to_bytes, degrees, repeat(size), repeat("big"))]
        for i in wide:
            deg = [*map(sum, zip(*map(itemgetter(_DEGREE), recs[cuts[i]])))]
            heads[i] = b"\x80" + _key_field(_packed_degree(deg, key_width(sum(deg))))
        fields = [*map(itemgetter(_KEY), recs)]
        parts_keys = map(b"".join, map(fields.__getitem__, cuts))
        keys.update(zip(new, map(bytes.__add__, heads, parts_keys)))
        texts = [*map(itemgetter(field), recs)]
        frags.update(zip(new, map(template.__mod__, map(sep.join, map(texts.__getitem__, cuts)))))
    return rows


def _sorted_items(d: dict, form) -> list:
    """The (decoded key, coefficient) items of an id-keyed dict in canonical order."""
    order = sorted(d, key=_rows(d, form)[0].__getitem__)
    return [*zip(map(form[0], order), map(d.__getitem__, order))]


def _written(d: dict, rows: tuple, fmt, place=None) -> tuple:
    """(coefficient texts, fragments) of an id-keyed dict's terms sorted by
    key, or by place, a position in a sorted superset; rows has each id."""
    keys, frags = rows
    order = sorted(d, key=place or keys.__getitem__)
    return map(fmt, map(d.__getitem__, order)), map(frags.__getitem__, order)


@cache
def _margin_tables(avec, bvec, min_inner) -> tuple:
    """The tables of the product rule for multiplicity vectors avec, bvec.

    A table is a nonnegative k x h inner part with row sums <= avec, column
    sums <= bvec and total >= min_inner, in row-major lexicographic order.
    Each is stored as its argument list over slots: slot i is f_i with the
    rest of row i, slot k + j is g_j with the rest of column j, slot
    k + h + i*h + j is f_i*g_j with the inner entry; zero entries are left
    out.
    """
    k, h = len(avec), len(bvec)
    cells = k * h
    inner = [0] * cells
    rowleft = list(avec)
    colleft = list(bvec)
    # rows_rest[i]: total multiplicity of the rows after row i
    rows_rest = [sum(avec[i + 1:]) for i in range(k)]
    tables = []

    def leaf():
        args = [(i, v) for i, v in enumerate(rowleft) if v]
        args += [(k + j, v) for j, v in enumerate(colleft) if v]
        args += [(k + h + p, v) for p, v in enumerate(inner) if v]
        tables.append(tuple(args))

    def rec(pos, total):
        if pos == cells:
            if total >= min_inner:
                leaf()
            return
        i, j = divmod(pos, h)
        # even filling every later cell to its row capacity cannot reach
        # min_inner: prune
        if total + rowleft[i] + rows_rest[i] < min_inner:
            return
        for v in range(min(rowleft[i], colleft[j]) + 1):
            inner[pos] = v
            rowleft[i] -= v
            colleft[j] -= v
            rec(pos + 1, total + v)
            rowleft[i] += v
            colleft[j] += v
        inner[pos] = 0

    if cells == 0:
        if min_inner <= 0:
            leaf()
    else:
        rec(0, 0)
    return tuple(tables)


@cache
def _alpha_product_z(ka: int, kb: int, cap) -> tuple:
    """Structure constants over Z of e_alpha * e_beta, alpha and beta of
    ids ka and kb.

    cap is None for the no-cutoff product (inverse limit) or the slot count
    n; the result holds an (id, int) pair for each index gamma with
    |gamma| <= cap, in the order of the first table that gives it.  A
    table's arguments, sorted by (deg mu, mu, mult), put equal monomials
    next to each other; each merge of v more onto t gives the factor
    comb(t + v, v).
    """
    fs, avec, wa = _split(ka)
    gs, bvec, wb = _split(kb)
    min_inner = 0 if cap is None else max(0, wa + wb - cap)
    # the candidate monomial of each slot: f_i, g_j, f_i*g_j
    monos = [*fs, *gs, *[tuple(map(add, f, g)) for f in fs for g in gs]]
    degs = [*map(sum, monos)]
    out: dict[int, int] = {}
    get = out.get
    for args in _margin_tables(avec, bvec, min_inner):
        gamma = []
        factor = 1
        last = None
        # an int first keeps most of the sort's compares off the tuples
        for _, mu, v in sorted([(degs[s], monos[s], v) for s, v in args]):
            if mu == last:
                t += v
                factor *= comb(t, v)
                gamma[-1] = (mu, t)
            else:
                gamma.append((mu, v))
                last, t = mu, v
        k = _intern_alpha(tuple(gamma))
        out[k] = get(k, 0) + factor
    return tuple(out.items())


def _check_slots(n) -> None:
    if n is not INF:
        _checked_int(n, "ambient slot count", 1)


class MsfElement(Sparse):
    """R-linear combination of basis symbols; ambient is n slots or INF.
    Its terms are stored in _d under interned index ids (module docstring)."""

    __slots__ = ("n", "m", "ring", "_d")

    def __init__(self, n, m: int, ring: Ring, terms=None):
        _check_slots(n)
        _checked_int(m, "variable count", 1)
        self.n = n
        self.m = m
        self.ring = ring
        clean = {}
        if terms:
            for alpha, c in terms.items():
                self._check_alpha(alpha)
                c = ring.coerce(c)
                if c:
                    clean[_intern_alpha(alpha)] = c
        self._d = clean

    @classmethod
    def _make(cls, n, m: int, ring: Ring, d: dict) -> "MsfElement":
        """Trusted constructor: the caller guarantees ids of canonical
        indices of weight at most n and nonzero ring elements (Ring.settle)."""
        self = object.__new__(cls)
        self.n, self.m, self.ring, self._d = n, m, ring, d
        return self

    def __reduce__(self):
        # ids are local to a process, and INF is told apart by identity:
        # pickle the indices, and the ambient as the JSON form spells it
        return (_unpickled, ("inf" if self.n is INF else self.n, self.m, self.ring,
                             _decoded_alphas(self._d)))

    @property
    def terms(self) -> TermsView:
        """The terms as a read-only mapping from indices."""
        return TermsView(self._d, _ALPHAS.__getitem__, _ALPHA_IDS.get)

    def _ambient(self) -> tuple:
        return (self.n, self.m, self.ring)

    def _degree(self, k: int) -> Mono:
        return alpha_multidegree(_ALPHAS[k], self.m)

    def _check_alpha(self, alpha: AlphaIndex) -> None:
        if make_alpha(alpha) != alpha or any(len(mu) != self.m for mu, _ in alpha):
            raise ValueError(f"index {alpha!r} is not canonical in {self.m} variables")
        w = alpha_weight(alpha)
        if self.n is not INF and w > self.n:
            raise ValueError(f"index of weight {w} cannot live in ambient n={self.n}")

    def __mul__(self, other: "MsfElement") -> "MsfElement":
        self._compat(other)
        R = self.ring
        cap = None if self.n is INF else self.n
        xs, dx = R.lift(self._d)
        ys, dy = R.lift(other._d)
        ys = [(ky, cy, _split(ky)[2]) for ky, cy in ys.items()]
        out: dict[int, int] = {}
        get = out.get
        for kx, cx in xs.items():
            wx = _split(kx)[2]
            for ky, cy, wy in ys:
                cxy = cx * cy
                # the cap prunes only when the weights can exceed it
                ck = None if cap is None or cap >= wx + wy else cap
                for k, mult in _alpha_product_z(kx, ky, ck):
                    out[k] = get(k, 0) + (cxy if mult == 1 else cxy * mult)
        return MsfElement._make(self.n, self.m, R, R.settle(out, dx * dy))

    def truncate(self, target) -> "MsfElement":
        _check_slots(target)
        if self.n is not INF and (target is INF or target > self.n):
            raise ValueError(f"cannot lift from ambient {self.n} to {target}")
        if target == self.n:
            return self
        keep = {k: c for k, c in self._d.items()
                if target is INF or _split(k)[2] <= target}
        return MsfElement._make(target, self.m, self.ring, keep)

    def total_degree_cut(self, bound: int) -> "MsfElement":
        """Keep the terms of total multidegree <= bound."""
        keep = {k: c for k, c in self._d.items() if sum(self._degree(k)) <= bound}
        return self._like(keep)

    def expand(self) -> NPoly:
        """Concrete orbit-sum polynomial in the n-slot ring."""
        if self.n is INF:
            raise ValueError("cannot expand an inverse-limit element")
        n, m, d = self.n, self.m, self._d
        w = key_width(max((e for k in d for mu in _split(k)[0] for e in mu), default=0))
        # orbit sums of distinct indices have disjoint supports
        out: dict[int, object] = {}
        for k, c in d.items():
            out.update(dict.fromkeys(_expand_alpha(k, n, m, w), c))
        return NPoly._packed(n, m, self.ring, out, w)

    def sorted_terms(self):
        return _sorted_items(self._d, _TEXT_FORM)

    def text(self) -> str:
        d = self._d
        return signed_text(zip(*_written(d, _rows(d, _TEXT_FORM), self.ring.format_coeff)))

    def __repr__(self) -> str:
        n = "inf" if self.n is INF else self.n
        return f"MsfElement(n={n}, m={self.m}, {self.text()})"


def _unpickled(n, m: int, ring: Ring, terms: dict) -> MsfElement:
    return MsfElement(INF if n == "inf" else n, m, ring, terms)


def _basis_symbol(alpha: AlphaIndex, n, m: int, ring: Ring) -> MsfElement:
    """e_alpha with coefficient one; trusted: alpha is canonical in m
    variables and of weight at most n."""
    return MsfElement._make(n, m, ring, {_intern_alpha(alpha): ring.one})


@cache
def _expand_alpha(k: int, n: int, m: int, w: int) -> tuple:
    """Packed keys, field width w, of the orbit sum of e_alpha in n slots,
    alpha of id k.

    One key per way of giving each support monomial its multiplicity many
    slots, all slots distinct; every key occurs exactly once.  The keys
    come out in lexicographic order of the slot choices, monomial by
    monomial.
    """
    monos, mults, weight = _split(k)
    if weight > n:
        return ()
    if not monos:
        return (0,)
    # a monomial's key in slot j is its packed key shifted by j slots; keys
    # in disjoint slots add up to the key of their product
    step = m * w
    keys = [[pack_key(mu, w) << s for s in range(0, n * step, step)] for mu in monos]
    # (partial key, free slots) after placing each monomial but the last
    level = [(0, tuple(range(n)))]
    for here, mult in zip(keys, mults[:-1]):
        level = [(key + sum(map(here.__getitem__, slots)),
                  tuple([s for s in avail if s not in slots]))
                 for key, avail in level for slots in combinations(avail, mult)]
    here, mult = keys[-1], mults[-1]
    return tuple([key + placed for key, avail in level
                  for placed in map(sum, combinations(map(here.__getitem__, avail), mult))])


def e_alpha(support, n, m: int, ring: Ring) -> "MsfElement":
    """The basis symbol with multiplicity map given by support pairs.

    In finite ambient a weight above n raises WeightExceedsAmbient: the
    symbol vanishes there, and a caller that wants its zero tests the weight.
    """
    alpha = make_alpha(support)
    for mu, _ in alpha:
        if len(mu) != m:
            raise ValueError(f"support monomial {mu} not in {m} variables")
    if n is not INF and alpha_weight(alpha) > n:
        raise WeightExceedsAmbient(
            f"weight {alpha_weight(alpha)} symbol vanishes for n={n}")
    return _basis_symbol(alpha, n, m, ring)


@cache
def _alphas_cached(m: int, a: Mono, max_weight) -> tuple:
    """The indices of multidegree a and weight <= max_weight (None: any),
    sorted by weight, then by their parts' (deg mu, mu, mult), a prefix
    first: the writers' canonical order, since all share multidegree a.

    A walk over the monomials mu <= a, largest first: each step gives the
    next part a smaller monomial than the last and a multiplicity.  The
    remainder r is packed in guard-bit fields (polyring), so
    ((r | G) - mu) & G == G tests mu <= r in every entry at once.  Parts
    left of degree at most deg mu cannot cover r once total(r) exceeds
    the weight budget times deg mu, which ends the loop.  A part is coded
    as grlex rank times s plus multiplicity, so one sort of flat int keys
    (weight, codes in ascending order) gives the order.
    """
    monos = monomials_up_to(m, a)
    degs = [*map(sum, monos)]
    w = key_width(max(a))
    G = _guard_bits(m, w)
    packed = [pack_key(mu, w) for mu in monos]
    total = sum(a)
    cap = total if max_weight is None else min(max_weight, total)
    s = cap + 1
    found = []
    acc = []  # codes of the parts so far, descending

    def walk(top, r, tot, weight):
        # the parts after acc: ranks below top, remainder r of total tot
        left = cap - weight
        for rank in reversed(range(bisect_right(degs, tot, 0, top))):
            d = degs[rank]
            if tot > left * d:
                return
            mu = packed[rank]
            rest, mult = r, 0
            while mult < left and ((rest | G) - mu) & G == G:
                rest -= mu
                mult += 1
                acc.append(rank * s + mult)
                if rest:
                    walk(rank, rest, tot - mult * d, weight + mult)
                else:
                    found.append((weight + mult, *reversed(acc)))
                acc.pop()

    if total:
        walk(len(monos), pack_key(a, w), total, 0)
    else:
        found.append((0,))
    found.sort()
    part = {c: (monos[c // s], c % s) for key in found for c in key[1:]}
    return tuple([tuple(map(part.__getitem__, key[1:])) for key in found])


def alphas_of_multidegree(m: int, a: Mono, max_weight=None) -> list:
    """All indices of multidegree exactly a, optionally of weight <= max_weight.

    Deterministic order: by weight, then by the canonical index key.  The
    components and the bound are checked here, not in the cache, where
    (True, 2) would find the entry of (1, 2).
    """
    a = tuple(a)
    if len(a) != m:
        raise ValueError("multidegree length must equal m")
    for d in a:
        _checked_int(d, "multidegree component", 0)
    if max_weight is not None:
        _checked_int(max_weight, "weight bound", 0)
    return list(_alphas_cached(m, a, max_weight))


def basis_alphas(n: int, m: int, a: Mono) -> list:
    """Indices of the module basis in multidegree a for n slots."""
    return alphas_of_multidegree(m, a, max_weight=_checked_int(n, "slot count", 1))


# JSON forms, the CLI exchange format

def element_json_text(x: MsfElement) -> str:
    """Canonical JSON of x, built in one pass over its sorted terms.

    The text equals json.dumps(element_to_json(x), sort_keys=True,
    separators=(",", ":")); ring strings and coefficients need no escapes.
    """
    cs, frags = _written(x._d, _rows(x._d, _JSON_FORM), x.ring.format_coeff)
    terms = ",".join(map('%s%s"}'.__mod__, zip(frags, cs)))
    n = '"inf"' if x.n is INF else x.n
    return f'{{"m":{x.m},"n":{n},"ring":"{x.ring.to_string()}","terms":[{terms}]}}'


def element_to_json(x: MsfElement) -> dict:
    """The JSON object of x, as element_json_text writes it."""
    import json

    return json.loads(element_json_text(x))


_ints_only = frozenset([int]).issuperset


@cache
def _spelled_ids() -> dict:
    """The (id, weight) of each index spelling element_from_json accepted:
    the tuple of its (*mono, mult) entries as the JSON lists them."""
    return {}


def element_from_json(d) -> MsfElement:
    if not isinstance(d, dict):
        raise ValueError("element must be a JSON object")
    for key in ("n", "m", "ring", "terms"):
        if key not in d:
            raise ValueError(f"element is missing the {key!r} field")
    n = INF if d["n"] == "inf" else _checked_int(d["n"], "slot count", 1)
    m = _checked_int(d["m"], "variable count", 1)
    ring = Ring.from_string(d["ring"])
    if not isinstance(d["terms"], list):
        raise ValueError("terms must be a list")
    out = {}
    spelled = _spelled_ids()
    for t in d["terms"]:
        if not isinstance(t, dict) or "alpha" not in t or "coeff" not in t \
                or not isinstance(t["alpha"], list) or not isinstance(t["coeff"], str):
            raise ValueError(f"bad term {t!r}")
        spelling = []
        for entry in t["alpha"]:
            if not isinstance(entry, dict) or "mono" not in entry or "mult" not in entry:
                raise ValueError(f"bad index entry {entry!r}")
            mono = entry["mono"]
            if not isinstance(mono, list) or len(mono) != m:
                raise ValueError(f"bad monomial {mono!r}")
            spelling.append((*mono, entry["mult"]))
        spelling = tuple(spelling)
        # True == 1 and 2.0 == 2: only an all-int spelling may find an entry
        ints = _ints_only(map(type, chain.from_iterable(spelling)))
        hit = spelled.get(spelling) if ints else None
        if hit is None:
            alpha = make_alpha([(e[:-1], e[-1]) for e in spelling])
            hit = spelled[spelling] = _intern_alpha(alpha), alpha_weight(alpha)
        k, w = hit
        if n is not INF and w > n:
            raise ValueError(f"index of weight {w} cannot live in ambient n={n}")
        out[k] = out.get(k, 0) + ring.parse_coeff(t["coeff"])
    return MsfElement._make(n, m, ring, ring.settle(out, 1))
