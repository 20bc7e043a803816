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
beta, so the rule is split in three cached steps:

* _margin_tables(avec, bvec, min_inner) enumerates the tables once per
  shape, each as its argument list over slots f_i, g_j and f_i*g_j;
* _product_skeleton(avec, bvec, min_inner, ranks) merges them once per
  rank pattern: ranks names each slot's monomial by its grlex rank among
  the distinct candidates of an index pair, equal monomials sharing a
  rank, and the result maps index patterns ((rank, mult), ...) to
  integers;
* _alpha_product_z(alpha, beta, cap) builds the k+h+kh candidate
  monomials of one pair, ranks them and renames the skeleton's ranks to
  monomials.

None of these keys holds a ring.

The writers sort terms by one integer key each (_sorted_rows): a term's
packed multidegree, in fields too wide for its sum to carry, above the
ranks of its parts by key part, one digit per position.

Validation happens once, at the boundary: the MsfElement constructor,
make_alpha, e_alpha and element_from_json check every index, and refuse a
boolean as an exponent or multiplicity.  Arithmetic builds its results
through the trusted MsfElement._make, a direct slot store: its callers add
integer numerators into one dict and settle it into the ring once
(Ring.lift and Ring.settle, or polyring.Sparse for sums and scaling), and
guarantee canonical indices of weight at most n.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, repeat
from math import comb, factorial
from operator import add, getitem, lshift

from .coeffring import Ring
from .monomial import Mono, grlex_key, monomials_up_to
from .polyring import (BASE_WIDTH, AmbientMismatch, NPoly, Sparse, _checked_int,
                       key_width, signed_text, slot_key)

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
    "product",
    "expand",
    "merge_repeats",
    "truncate",
    "ek_of_f",
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
# one symbol factor (rewrite._factor_render).  A record is a flat tuple: the
# fields of the part's key part come first, so records sort by key part; the
# rest is read from the end: the part's total degree, its multidegree, that
# multidegree packed at BASE_WIDTH, its text and JSON fragments, and the
# part itself.  Records hold no ring or ambient, so only the coefficient is
# formatted per call.
_TOTAL, _DEGREE, _PACKED, _TEXT, _JSON, _PART = range(-6, 0)


@cache
def _pair_render(pair) -> tuple:
    """Render record of a support pair (mu, mult); key part (deg mu, mu, mult)."""
    mu, mult = pair
    deg = tuple([e * mult for e in mu])
    return (sum(mu), *mu, mult, sum(deg), deg, _packed_degree(deg, BASE_WIDTH),
            f"{mono_text(mu)}:{mult}",
            '{"mono":[%s],"mult":%d}' % (",".join(map(str, mu)), mult), pair)


def _packed_degree(deg: tuple, w: int) -> int:
    """A multidegree as one int: its total above one w-bit field per entry,
    the first entry highest, so integer order is grlex order."""
    key = sum(deg)
    for d in deg:
        key = key << w | d
    return key


def _sorted_rows(terms: dict, render, field: int) -> tuple:
    """The (index, coefficient) items of terms in canonical order, and the
    map from each part of an index to field `field` of its render record.

    Canonical order: by total degree, then multidegree, then the parts by
    key part, a prefix first.  The distinct parts are ranked once; a part at
    position i of an index stands for its packed multidegree (key_width
    fields: no term's sum carries) above its rank in digit i, so a term's
    key is one sum of table entries.  Every part has positive degree, so a
    prefix never ties its extension, and keys are unique.
    """
    recs = sorted(map(render, {*chain.from_iterable(terms)}))
    if not recs:  # at most the constant term
        return [*terms.items()], {}.__getitem__
    cols = [*zip(*recs)]
    parts, n = cols[_PART], len(recs)
    depth = max(map(len, terms))
    w = key_width(depth * max(cols[_TOTAL]))
    b = n.bit_length()
    packed = cols[_PACKED] if w == BASE_WIDTH else map(_packed_degree, cols[_DEGREE], repeat(w))
    base = [*map(lshift, packed, repeat(depth * b))]
    tables = []
    for s in range(depth * b - b, -1, -b):
        tables.append([*map(add, base, range(0, n << s, 1 << s))])
    rank = dict(zip(parts, range(n))).__getitem__
    # sum(map(getitem, tables, map(rank, idx))) for each index, in C loops
    keys = map(sum, map(map, repeat(getitem), repeat(tables), map(map, repeat(rank), terms)))
    keyed = dict(zip(keys, terms.items()))
    return [*map(keyed.__getitem__, sorted(keyed))], dict(zip(parts, cols[field])).__getitem__


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
def _product_skeleton(avec, bvec, min_inner, ranks) -> dict:
    """The product rule for one shape, with monomials named by rank.

    ranks[s] is the grlex rank of slot s's monomial among the distinct
    candidate monomials of one index pair; slots whose monomials coincide
    share a rank.  Merging a table's arguments of equal rank gives an index
    pattern ((rank, mult), ...) in ascending rank, and its multinomial
    factor.  Patterns keep the table order of their first occurrence.
    """
    out: dict[tuple, int] = {}
    for args in _margin_tables(avec, bvec, min_inner):
        merged: dict[int, int] = {}
        factor = 1
        for slot, v in args:
            r = ranks[slot]
            if r in merged:
                t = merged[r] + v
                factor *= comb(t, v)
                merged[r] = t
            else:
                merged[r] = v
        pattern = tuple(sorted(merged.items()))
        out[pattern] = out.get(pattern, 0) + factor
    return out


@cache
def _alpha_product_z(alpha: AlphaIndex, beta: AlphaIndex, cap) -> dict:
    """Structure constants over Z of e_alpha * e_beta.

    cap is None for the no-cutoff product (inverse limit) or the slot count
    n; keys of the result are the indices gamma with |gamma| <= cap.
    """
    fs, avec = zip(*alpha) if alpha else ((), ())
    gs, bvec = zip(*beta) if beta else ((), ())
    min_inner = 0 if cap is None else max(0, sum(avec) + sum(bvec) - cap)
    slots = [*fs, *gs, *[tuple(map(add, f, g)) for f in fs for g in gs]]
    monos = sorted(set(slots), key=grlex_key)
    rank = dict(zip(monos, range(len(monos))))
    skeleton = _product_skeleton(avec, bvec, min_inner, tuple(map(rank.__getitem__, slots)))
    return {tuple([(monos[r], t) for r, t in pattern]): c
            for pattern, c in skeleton.items()}


def _check_slots(n) -> None:
    if n is not INF:
        _checked_int(n, "ambient slot count", 1)


class MsfElement(Sparse):
    """R-linear combination of basis symbols; ambient is n slots or INF."""

    __slots__ = ("n", "m", "ring", "terms")

    def __init__(self, n, m: int, ring: Ring, terms=None):
        _check_slots(n)
        _checked_int(m, "variable count", 1)
        self.n = n
        self.m = m
        self.ring = ring
        clean = {}
        p = ring.p
        if terms:
            for alpha, c in terms.items():
                self._check_alpha(alpha)
                if p is not None:
                    c %= p
                if not ring.is_zero(c):
                    clean[alpha] = c
        self.terms = clean

    @classmethod
    def _make(cls, n, m: int, ring: Ring, terms: dict) -> "MsfElement":
        """Trusted constructor: the caller guarantees canonical indices of
        weight at most n and nonzero ring elements (Ring.settle)."""
        self = object.__new__(cls)
        self.n, self.m, self.ring, self.terms = n, m, ring, terms
        return self

    def _ambient(self) -> tuple:
        return (self.n, self.m, self.ring)

    def _degree(self, alpha: AlphaIndex) -> Mono:
        return alpha_multidegree(alpha, self.m)

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
        xs, dx = R.lift(self.terms)
        ys, dy = R.lift(other.terms)
        ys = [(ay, cy, alpha_weight(ay)) for ay, cy in ys.items()]
        out: dict[AlphaIndex, int] = {}
        get = out.get
        for ax, cx in xs.items():
            wx = alpha_weight(ax)
            for ay, cy, wy in ys:
                cxy = cx * cy
                # the cap prunes only when the weights can exceed it
                ck = None if cap is None or cap >= wx + wy else cap
                for gamma, mult in _alpha_product_z(ax, ay, ck).items():
                    out[gamma] = get(gamma, 0) + (cxy if mult == 1 else cxy * mult)
        return MsfElement._make(self.n, self.m, R, R.settle(out, dx * dy))

    def truncate(self, target) -> "MsfElement":
        _check_slots(target)
        if self.n is not INF and (target is INF or target > self.n):
            raise ValueError(f"cannot lift from ambient {self.n} to {target}")
        if target == self.n:
            return self
        keep = {a: c for a, c in self.terms.items()
                if target is INF or alpha_weight(a) <= target}
        return MsfElement._make(target, self.m, self.ring, keep)

    def total_degree_cut(self, bound: int) -> "MsfElement":
        """Keep the terms of total multidegree <= bound."""
        keep = {al: c for al, c in self.terms.items()
                if sum(alpha_multidegree(al, self.m)) <= bound}
        return self._like(keep)

    def expand(self) -> NPoly:
        """Concrete orbit-sum polynomial in the n-slot ring."""
        if self.n is INF:
            raise ValueError("cannot expand an inverse-limit element")
        n, m = self.n, self.m
        w = key_width(max((e for alpha in self.terms for mu, _ in alpha for e in mu),
                          default=0))
        # orbit sums of distinct indices have disjoint supports
        out: dict[int, object] = {}
        for alpha, c in self.terms.items():
            out.update(dict.fromkeys(_expand_alpha(alpha, n, m, w), c))
        return NPoly._packed(n, m, self.ring, out, w)

    def sorted_terms(self):
        return _sorted_rows(self.terms, _pair_render, _TEXT)[0]

    def text(self) -> str:
        fmt = self.ring.format_coeff
        rows, frag = _sorted_rows(self.terms, _pair_render, _TEXT)
        return signed_text((fmt(c), "e(%s)" % ", ".join(map(frag, alpha)) if alpha else "")
                           for alpha, c in rows)

    def __repr__(self) -> str:
        n = "inf" if self.n is INF else self.n
        return f"MsfElement(n={n}, m={self.m}, {self.text()})"


@cache
def _expand_alpha(alpha: AlphaIndex, n: int, m: int, w: int) -> tuple:
    """Packed keys, field width w, of the orbit sum of e_alpha in n slots.

    One key per way of giving each support monomial its multiplicity many
    slots, all slots distinct; every key occurs exactly once.
    """
    from itertools import combinations

    if alpha_weight(alpha) > n:
        return ()
    # keys[t][j]: support monomial t placed in slot j
    keys = [[slot_key(mu, j, m, w) for j in range(n)] for mu, _ in alpha]
    results = []

    def rec(idx, avail, key):
        if idx == len(alpha):
            results.append(key)
            return
        here, mult = keys[idx], alpha[idx][1]
        for slots in combinations(avail, mult):
            placed = sum(here[j] for j in slots)
            rec(idx + 1, tuple(s for s in avail if s not in slots), key + placed)

    rec(0, tuple(range(n)), 0)
    return tuple(results)


def e_alpha(support, n, m: int, ring: Ring, truncating: bool = False) -> "MsfElement":
    """The basis symbol with multiplicity map given by support pairs.

    In finite ambient a weight above n either raises WeightExceedsAmbient or,
    with truncating=True, gives the zero element.
    """
    alpha = make_alpha(support)
    for mu, _ in alpha:
        if len(mu) != m:
            raise ValueError(f"support monomial {mu} not in {m} variables")
    if n is not INF and alpha_weight(alpha) > n:
        if truncating:
            return MsfElement.zero(n, m, ring)
        raise WeightExceedsAmbient(
            f"weight {alpha_weight(alpha)} symbol vanishes for n={n}")
    return MsfElement._make(n, m, ring, {alpha: ring.one})


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
    from .monomial import compositions

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


@cache
def _alphas_cached(m: int, a: Mono, max_weight) -> tuple:
    monos = monomials_up_to(m, a)
    monos.reverse()  # largest first so indices come out sorted ascending

    found = []

    def rec(idx, remaining, budget, acc):
        if not any(remaining):
            found.append(tuple(reversed(acc)))
            return
        if idx == len(monos) or budget == 0:
            return
        mu = monos[idx]
        top = min(remaining[i] // mu[i] for i in range(m) if mu[i])
        if budget is not None:
            top = min(top, budget)
        rec(idx + 1, remaining, budget, acc)
        for mult in range(1, top + 1):
            rem = tuple(remaining[i] - mult * mu[i] for i in range(m))
            rec(idx + 1, rem,
                None if budget is None else budget - mult,
                acc + [(mu, mult)])

    rec(0, a, max_weight, [])
    found = [alpha for alpha, _ in _sorted_rows(dict.fromkeys(found), _pair_render, _TEXT)[0]]
    found.sort(key=alpha_weight)
    return tuple(found)


def alphas_of_multidegree(m: int, a: Mono, max_weight=None) -> list:
    """All indices of multidegree exactly a, optionally of weight <= max_weight.

    Deterministic order: by weight, then by the canonical index key.
    """
    a = tuple(a)
    if len(a) != m:
        raise ValueError("multidegree length must equal m")
    return list(_alphas_cached(m, a, max_weight))


def basis_alphas(n: int, m: int, a: Mono) -> list:
    """Indices of the module basis in multidegree a for n slots."""
    return alphas_of_multidegree(m, a, max_weight=n)


# JSON forms, the CLI exchange format

def element_json_text(x: MsfElement) -> str:
    """Canonical JSON of x, built in one pass over its sorted terms.

    The text equals json.dumps(element_to_json(x), sort_keys=True,
    separators=(",", ":")); ring strings and coefficients need no escapes.
    """
    fmt = x.ring.format_coeff
    rows, frag = _sorted_rows(x.terms, _pair_render, _JSON)
    terms = ",".join(['{"alpha":[%s],"coeff":"%s"}' % (",".join(map(frag, alpha)), fmt(c))
                      for alpha, c in rows])
    n = '"inf"' if x.n is INF else x.n
    return f'{{"m":{x.m},"n":{n},"ring":"{x.ring.to_string()}","terms":[{terms}]}}'


def element_to_json(x: MsfElement) -> dict:
    """The JSON object of x, as element_json_text writes it."""
    import json

    return json.loads(element_json_text(x))


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
    for t in d["terms"]:
        if not isinstance(t, dict) or "alpha" not in t or "coeff" not in t \
                or not isinstance(t["alpha"], list) or not isinstance(t["coeff"], str):
            raise ValueError(f"bad term {t!r}")
        pairs = []
        for entry in t["alpha"]:
            if not isinstance(entry, dict) or "mono" not in entry or "mult" not in entry:
                raise ValueError(f"bad index entry {entry!r}")
            mono = entry["mono"]
            if not isinstance(mono, list) or len(mono) != m:
                raise ValueError(f"bad monomial {mono!r}")
            pairs.append((tuple(mono), entry["mult"]))
        alpha = make_alpha(pairs)
        if n is not INF and alpha_weight(alpha) > n:
            raise ValueError(f"index of weight {alpha_weight(alpha)} cannot live in ambient n={n}")
        out[alpha] = out.get(alpha, 0) + ring.parse_coeff(t["coeff"])
    return MsfElement._make(n, m, ring, ring.settle(out, 1))
