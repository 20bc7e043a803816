"""The concrete polynomial ring, and the sparse base of every coefficient dict.

``Sparse`` holds the ring arithmetic that all three coefficient-dict
classes share (``NPoly`` here, ``MsfElement`` and ``GenPoly`` elsewhere):
equality, sums, negation, scaling, powers and multidegree components.  A
subclass supplies its ambient, one trusted constructor and the
multidegree of a key; it keeps its own validating public constructor,
product kernel and writers.  Every public constructor checks every key,
zero coefficient or not, and takes the integers of a key through
``_checked_int``, so booleans, floats and out-of-range values are refused
with a ValueError.  It takes each coefficient, as ``Sparse.scale`` takes
its scalar, through ``Ring.coerce``: an int that is not a bool, or over Q
also a Fraction, else a ValueError; over Z/p it is reduced into [0, p),
and those that are 0 mod p are dropped.  A power must be an int of at
least 0.

``NPoly`` is R[x_i(j) : 1<=i<=m, 1<=j<=n], the n-slot ring over a
coefficient ring R.  Monomials are flat exponent tuples of length n*m in
slot-major layout, x_i(j) living at flat index (j-1)*m + (i-1).
Slot-major makes the slot permutation action a block permutation of the
key.  Two shapes stand for the classical rings: ``NPoly(1, m)`` is
R[y_1,...,y_m], one slot of m variables, and ``NPoly(N, 1)`` holds the
polynomials in N variables that S_N permutes by ``reference.sn_act``.

Internally an NPoly stores each monomial as one packed integer: the
variable at flat index k owns a bit field of fixed width w starting at bit
k*w, and the top bit of every field is a guard bit that no stored key sets.
Multiplying two monomials is then a single integer addition.  Keys leave
this module only as exponent tuples: ``NPoly.terms`` is a read-only mapping
view that decodes on iteration and encodes on lookup, and ``sorted_terms``
and ``npoly_text`` speak tuples.

Overflow policy: widths start at ``BASE_WIDTH`` bits and only ever double.
A product whose sum reaches a guard bit is still exact in w bits and is
repacked at 2w, so keys never wrap and exponents have no limit.  Operands
of different widths are brought to the wider one, so equality and every
output are independent of the width a polynomial carries.

Every Sparse value is canonical: no zero coefficients are ever stored, so
structural equality is ring equality.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping
from functools import cache, reduce
from operator import or_

from .coeffring import Ring
from .monomial import Mono, grlex_key

__all__ = [
    "AmbientMismatch",
    "Sparse",
    "NPoly",
    "npoly_multidegree",
    "npoly_text",
]


def binary_power(x, k: int, one):
    """x**k by square-and-multiply, starting from x itself; one() for k = 0."""
    if _checked_int(k, "power", 0) == 0:
        return one()
    acc = None
    while True:
        if k & 1:
            acc = x if acc is None else acc * x
        k >>= 1
        if not k:
            return acc
        x = x * x


def signed_text(rows) -> str:
    """A sum as text from ordered (coefficient text, monomial text) rows.

    A coefficient of 1 or -1 is left out, an empty monomial is a constant,
    a leading minus joins as " - " (no fragment contains " + "); no rows
    is "0".
    """
    return " + ".join([cs if not body else body if cs == "1" else "-" + body if cs == "-1"
                       else f"{cs}*{body}" for cs, body in rows]).replace(" + -", " - ") or "0"


def _checked_int(v, what: str, least: int) -> int:
    """v must be an integer, not a boolean, of at least `least`."""
    if type(v) is not int or v < least:
        raise ValueError(f"bad {what} {v!r}")
    return v


class AmbientMismatch(ValueError):
    """Operands live in different ambients (n, m or coefficient ring)."""


def _ambient_text(ambient) -> str:
    return "(%s)" % ",".join([x.to_string() if isinstance(x, Ring) else str(x)
                              for x in ambient])


class Sparse:
    """A finite map from keys to nonzero coefficients of one Ring.

    A subclass stores its terms in ``_d``, where 0 is the key of the
    constant monomial, and supplies ``_ambient()``, its constructor
    arguments before ``terms`` as a tuple; ``_make(*ambient, terms)``, the
    trusted constructor, which stores canonical keys and nonzero ring
    elements as given; and ``_degree(key)``, the multidegree of a key.
    Sums, negation and scaling accumulate into one dict and settle it into
    the ring once (Ring.settle), so every result is canonical.
    """

    __slots__ = ()

    def _like(self, raw: dict):
        """A result in self's ambient from canonical, settled terms."""
        return self._make(*self._ambient(), raw)

    @classmethod
    def zero(cls, *ambient):
        return cls(*ambient)

    @classmethod
    def one(cls, *ambient):
        return cls(*ambient) ** 0

    @property
    def is_zero(self) -> bool:
        return not self._d

    def _compat(self, other) -> None:
        a, b = self._ambient(), other._ambient()
        if a != b:
            raise AmbientMismatch(f"{_ambient_text(a)} vs {_ambient_text(b)}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._ambient() == other._ambient() and self._d == other._d

    __hash__ = None

    def __add__(self, other):
        self._compat(other)
        out = dict(self._d)
        get = out.get
        for k, c in other._d.items():
            out[k] = get(k, 0) + c
        return self._like(self.ring.settle(out, 1))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = self.ring.coerce(c)
        return self._like(self.ring.settle({k: c * v for k, v in self._d.items()}, 1))

    def __pow__(self, k: int):
        return binary_power(self, k, lambda: self._like({0: self.ring.one}))

    def multidegree_component(self, a):
        """Terms of multidegree exactly a; summing over all a recovers self."""
        a, deg = tuple(a), self._degree
        return self._like({k: c for k, c in self._d.items() if deg(k) == a})

    def multidegrees(self) -> set:
        return set(map(self._degree, self._d))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]))


# Packed exponent keys (Monagan & Pearce, CASC 2007); layout and overflow
# policy are in the module docstring.

BASE_WIDTH = 8  # bits per field, guard bit included


def key_width(top: int) -> int:
    """Field width for exponents up to top: BASE_WIDTH, doubled until the
    exponents fit below the guard bit."""
    w = BASE_WIDTH
    while top >> (w - 1):
        w *= 2
    return w


def pack_key(mono, w: int) -> int:
    """Packed key of a flat exponent tuple, fields of width w."""
    key = 0
    for e in reversed(mono):
        key = (key << w) | e
    return key


def unpack_key(key: int, size: int, w: int) -> tuple:
    """Flat exponent tuple of a packed key with size fields of width w."""
    mask = (1 << w) - 1
    return tuple((key >> s) & mask for s in range(0, size * w, w))


@cache
def _guard_bits(size: int, w: int) -> int:
    return sum(1 << (s + w - 1) for s in range(0, size * w, w))


def _repack(d: dict, size: int, w: int, w2: int) -> dict:
    return {pack_key(unpack_key(k, size, w), w2): c for k, c in d.items()}


class TermsView(Mapping):
    """Read-only view of a dict of stored keys, speaking public keys.

    decode maps a stored key to its public form; encode maps a public key
    to its stored form, or to None when no stored key can stand for it.
    Keys are decoded when iterated and encoded when looked up; len is O(1).
    """

    __slots__ = ("_d", "_decode", "_encode")

    def __init__(self, d: dict, decode, encode):
        self._d, self._decode, self._encode = d, decode, encode

    def __len__(self) -> int:
        return len(self._d)

    def __iter__(self):
        return map(self._decode, self._d)

    def __getitem__(self, key):
        k = self._encode(key)
        if k is None or k not in self._d:
            raise KeyError(key)
        return self._d[k]

    def items(self):
        return _TermsItems(self)

    def values(self):
        return self._d.values()


class _TermsItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        view = self._mapping
        return zip(map(view._decode, view._d), view._d.values())


class NPoly(Sparse):
    """Sparse polynomial in the n*m variables x_i(j)."""

    __slots__ = ("n", "m", "ring", "_d", "_w")

    def __init__(self, n: int, m: int, ring: Ring, terms=None):
        size = _checked_int(n, "slot count", 1) * _checked_int(m, "variable count", 1)
        clean = {}
        top = 0
        if terms:
            for mono, c in terms.items():
                if len(mono) != size:
                    raise ValueError(f"exponent tuple of length {len(mono)}, expected {size}")
                for e in mono:
                    _checked_int(e, "exponent", 0)
                c = ring.coerce(c)
                if c:
                    clean[mono] = c
                    top = max(top, *mono)
        w = key_width(top)
        self.n = n
        self.m = m
        self.ring = ring
        self._d = {pack_key(mono, w): c for mono, c in clean.items()}
        self._w = w

    @classmethod
    def _packed(cls, n: int, m: int, ring: Ring, d: dict, w: int) -> "NPoly":
        """Trusted constructor: d maps keys of field width w, guard bits
        clear, to nonzero reduced coefficients."""
        p = object.__new__(cls)
        p.n, p.m, p.ring, p._d, p._w = n, m, ring, d, w
        return p

    def _ambient(self) -> tuple:
        return (self.n, self.m, self.ring)

    def _like(self, raw: dict) -> "NPoly":
        return NPoly._packed(self.n, self.m, self.ring, raw, self._w)

    def _degree(self, key: int) -> Mono:
        return npoly_multidegree(unpack_key(key, self.n * self.m, self._w), self.m)

    @classmethod
    def monomial(cls, exps, n: int, m: int, ring: Ring, coeff=None) -> "NPoly":
        c = ring.one if coeff is None else coeff
        return cls(n, m, ring, {tuple(exps): c})

    @classmethod
    def variable(cls, i: int, j: int, n: int, m: int, ring: Ring) -> "NPoly":
        """x_i(j), family i in 1..m, slot j in 1..n."""
        if not 1 <= i <= m:
            raise ValueError(f"family index {i} outside 1..{m}")
        if not 1 <= j <= n:
            raise ValueError(f"slot index {j} outside 1..{n}")
        exps = [0] * (n * m)
        exps[(j - 1) * m + (i - 1)] = 1
        return cls(n, m, ring, {tuple(exps): ring.one})

    @property
    def terms(self) -> TermsView:
        """The terms as a read-only mapping from flat exponent tuples."""
        size, w = self.n * self.m, self._w
        return TermsView(self._d, lambda k: unpack_key(k, size, w), self._encode)

    def _encode(self, mono):
        """The packed key of an exponent tuple, or None if it has none."""
        top = 1 << (self._w - 1)
        try:
            ok = len(mono) == self.n * self.m and all(
                type(e) is int and 0 <= e < top for e in mono)
        except TypeError:
            ok = False
        return pack_key(mono, self._w) if ok else None

    def _keys_at(self, w: int) -> dict:
        """The packed terms at field width w >= self._w."""
        if w == self._w:
            return self._d
        return _repack(self._d, self.n * self.m, self._w, w)

    def __eq__(self, other) -> bool:
        if other.__class__ is not NPoly:
            return NotImplemented
        if self._ambient() != other._ambient() or len(self._d) != len(other._d):
            return False
        w = max(self._w, other._w)
        return self._keys_at(w) == other._keys_at(w)

    def __add__(self, other: "NPoly") -> "NPoly":
        self._compat(other)
        w = max(self._w, other._w)
        out = dict(self._keys_at(w))
        get = out.get
        for k, c in other._keys_at(w).items():
            out[k] = get(k, 0) + c
        return NPoly._packed(self.n, self.m, self.ring, self.ring.settle(out, 1), w)

    def __mul__(self, other: "NPoly") -> "NPoly":
        self._compat(other)
        w = max(self._w, other._w)
        outer, inner = self._keys_at(w), other._keys_at(w)
        if len(outer) > len(inner):
            outer, inner = inner, outer
        R = self.ring
        outer, da = R.lift(outer)
        inner, db = R.lift(inner)
        inner = list(inner.items())
        out = {}
        get = out.get
        for ka, ca in outer.items():
            for kb, cb in inner:
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
        d = R.settle(out, da * db)
        size = self.n * self.m
        if reduce(or_, d, 0) & _guard_bits(size, w):
            # A field reached its guard bit.  Every field sum still fits in
            # w bits, so the keys are exact; at 2w they fit below the guard.
            d = _repack(d, size, w, 2 * w)
            w *= 2
        return NPoly._packed(self.n, self.m, self.ring, d, w)

    def __repr__(self) -> str:
        return f"NPoly({npoly_text(self)})"


def npoly_multidegree(mono, m: int) -> Mono:
    """Multidegree of a flat exponent tuple: x_i(j) counts toward family i."""
    deg = [0] * m
    for flat, e in enumerate(mono):
        if e:
            deg[flat % m] += e
    return tuple(deg)


# text form, mostly for tests and --text output

def npoly_text(p: NPoly) -> str:
    fmt, m = p.ring.format_coeff, p.m
    return signed_text(
        (fmt(c), "*".join(f"x{flat % m + 1}({flat // m + 1})" + (f"^{e}" if e > 1 else "")
                          for flat, e in enumerate(mono) if e))
        for mono, c in p.sorted_terms())
