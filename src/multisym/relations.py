"""Defining relations of the n-slot invariant ring.

Per multidegree a the kernel of the limit ring onto the n-slot ring is
spanned by the basis symbols of weight above n.  Rewriting such a symbol
into the free generators (in the no-cutoff ambient) yields a polynomial
identity that must evaluate to zero once the cutoff is applied: a defining
relation.

Vanishing is checked along two independent routes.  Route 1 is the
abstract product, through rewrite: evaluate(g, n).is_zero, the orbit-sum
evaluation that rewrite --check also runs.  Route 2 is genpoly_expand, which
multiplies concrete orbit-sum polynomials in the n-slot ring and shares
no code with rewrite or the orbit-sum product.  genpoly_expand keeps its
own caches of integer images, keyed by a generator monomial and the
ambient (n, m) but never by a coefficient ring: the full expansion over Z
of each factor and prefix (_expansion_z), and of each generator monomial
packed (_packed_image).

The sum over those images runs on Kronecker-packed integers (Kronecker
substitution; Harvey, "Faster polynomial multiplication via multipoint
Kronecker substitution", J. Symb. Comp. 2009).  Every monomial of one
multidegree a has a position in an append-only coordinate index of
(n, m, a), and an image is packed once into one int with a w-bit field
per position, holding its nonnegative integer coefficient there.  The
ring enters last: the coefficients are lifted to integer numerators over
one denominator (Ring.lift), already in [0, p) over Z/p, and the sum
of numerator times packed image is a few big-int multiply-adds.  The
width w is the least rung of 32, 64, 128, ... bits with
sum |c| * (largest image coefficient) < 2^(w-1), so every field sum lies
strictly inside +-2^(w-1) and, balanced digits being unique, the total T
is 0 exactly when every field sum is.  Over Z/p, where the sums are
nonnegative, every field sum is divisible by p exactly when p divides T
and T/p has no bit in the top p.bit_length() bits of any field.
Otherwise the fields are unpacked once (shifted up by 2^(w-1) on Z and
Q, where sums may be negative), mapped back to monomials and settled
into the ring once (Ring.settle).  Images of different multidegrees
share no monomial, so an inhomogeneous polynomial is summed one
multidegree at a time.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache
from itertools import repeat
from operator import mul

from .coeffring import ZZ, Ring
from .monomial import Mono, monomials_up_to
from .msf import INF, _basis_symbol, alpha_weight, alphas_of_multidegree, e_alpha
from .polyring import NPoly, _checked_int, _repack, key_width
from .rewrite import GenPoly, evaluate, rewrite

__all__ = [
    "kernel_basis",
    "relations_of",
    "genpoly_expand",
    "verify_relation",
    "multidegrees_upto",
]


def kernel_basis(n: int, m: int, a: Mono) -> list:
    """All indices of multidegree a and weight above n: the suffix of the
    weight-sorted list past weight n."""
    _checked_int(n, "slot count", 1)
    alphas = alphas_of_multidegree(m, a)
    return alphas[bisect_right(alphas, n, key=alpha_weight):]


def multidegrees_upto(max_a: Mono) -> list:
    """Componentwise bounded multidegrees, ordered by total then entries."""
    return [(0,) * len(max_a)] + monomials_up_to(len(max_a), max_a)


def relations_of(n: int, m: int, a: Mono, ring: Ring) -> list:
    """(index, relation) pairs of multidegree a, in kernel_basis order.

    Each relation is the rewrite of a dead basis symbol in the no-cutoff
    ambient, so it is a nonzero polynomial in the free generators that
    evaluates to zero in the n-slot ring.
    """
    return [(alpha, rewrite(_basis_symbol(alpha, INF, m, ring)))
            for alpha in kernel_basis(n, m, a)]


def _image_z(symmono, n: int, m: int) -> NPoly:
    """prod e_i(nu)**e over a symbol monomial, expanded over Z in n slots;
    its prefix and last factor come from the cache _expansion_z."""
    if not symmono:
        return NPoly.one(n, m, ZZ)
    if len(symmono) > 1:
        return _expansion_z(symmono[:-1], n, m) * _expansion_z(symmono[-1:], n, m)
    ((i, nu), e), = symmono
    if i > n:  # e_i(nu) vanishes
        return NPoly.zero(n, m, ZZ)
    return e_alpha([(nu, i)], n, m, ZZ).expand() ** e


@cache
def _expansion_z(symmono, n: int, m: int) -> NPoly:
    """_image_z, cached."""
    return _image_z(symmono, n, m)


FIELD_BITS = 32  # the first rung of the doubling ladder of field widths


def _pack_fields(fields: list, w: int) -> int:
    """The int with fields[i] in its i-th w-bit field; every entry in [0, 2^w)."""
    return int.from_bytes(b"".join(map(int.to_bytes, fields, repeat(w // 8),
                                       repeat("little"))), "little")


def _unpack_fields(total: int, size: int, w: int) -> list:
    """The first size w-bit fields of a nonnegative int."""
    b = w // 8
    buf = total.to_bytes(size * b, "little")
    return [int.from_bytes(buf[i:i + b], "little") for i in range(0, size * b, b)]


def _repeated(v: int, size: int, w: int) -> int:
    """The int with v in each of its first size w-bit fields."""
    return int.from_bytes(v.to_bytes(w // 8, "little") * size, "little")


@cache
def _coords(n: int, m: int, a: Mono) -> dict:
    """The append-only coordinate index of multidegree a in ambient (n, m):
    the position of each of its monomials, by packed NPoly key at field
    width key_width(max(a)), which no exponent exceeds.  Positions count up
    in order of first appearance, which is the dict's order, and never
    move, so an image packed while the index was smaller stays valid."""
    return {}


@cache
def _packed_image(symmono, n: int, m: int, w: int):
    """(packed, top, a) for the integer image of a symbol monomial, or None
    when the image is zero.

    a is the image's multidegree, top its largest coefficient, and packed
    the int with the image's coefficient in the w-bit field at each of its
    monomials' positions in a's index; packed is None when top does not
    fit below the top bit of a field.  Image coefficients are nonnegative
    (products of orbit sums).
    """
    # a product's image is only packed, so the last product stays uncached
    p = (_image_z if len(symmono) > 1 else _expansion_z)(symmono, n, m)
    if p.is_zero:
        return None
    a = p._degree(next(iter(p._d)))
    kw = key_width(max(a))
    d = p._d if p._w == kw else _repack(p._d, n * m, p._w, kw)
    top = max(d.values())
    if top >> (w - 1):
        return None, top, a
    pos = _coords(n, m, a)
    at = [pos.setdefault(k, len(pos)) for k in d]
    fields = [0] * (max(at) + 1)
    for i, v in zip(at, d.values()):
        fields[i] = v
    return _pack_fields(fields, w), top, a


def _packed_sum(terms, a: Mono, n: int, m: int, R: Ring, den: int) -> dict:
    """The terms, keyed at width key_width(max(a)), of sum c * image / den
    over the (symmono, c, image at FIELD_BITS) triples of multidegree a."""
    w = FIELD_BITS
    bound = sum([abs(c) * img[1] for _, c, img in terms])
    while bound >> (w - 1):
        w *= 2
    packs = [img[0] if w == FIELD_BITS else _packed_image(s, n, m, w)[0]
             for s, _, img in terms]
    total = sum(map(mul, [c for _, c, _ in terms], packs))
    if not total:
        return {}
    pos = _coords(n, m, a)
    size = len(pos)
    if R.p is not None:  # lifts in [0, p): field sums in [0, 2^(w-1))
        if _fields_divisible(total, R.p, size, w):
            return {}
        half = 0
    else:
        half = 1 << (w - 1)
        total += _repeated(half, size, w)
    return R.settle(dict(zip(pos, [v - half for v in _unpack_fields(total, size, w)])), den)


def _fields_divisible(total: int, p: int, size: int, w: int) -> bool:
    """Whether p divides each of the size w-bit fields of total, all below
    2^(w-1), without unpacking them.

    If it does, total/p has the fields' quotients as its fields, each below
    2^(w-1)/p <= 2^t for t = w - p.bit_length(); conversely, if p divides
    total and no field of total/p has a bit at or above t, then p times
    each field is below 2^w, so those products, carry-free, are total's
    fields.
    """
    if total % p:
        return False
    high = (1 << w) - (1 << max(w - p.bit_length(), 0))
    return not total // p & _repeated(high, size, w)


def genpoly_expand(g: GenPoly, n: int) -> NPoly:
    """Expand a generator polynomial in the concrete n-slot ring.

    Goes straight from symbols to orbit-sum polynomials and multiplies
    there, bypassing the abstract product: an independent route used to
    double-check vanishing.  The sum runs on packed images (module
    docstring).
    """
    _checked_int(n, "slot count", 1)
    m = g.m
    R = g.ring
    cs, den = R.lift(g.terms)  # Z/p coefficients lie in [0, p), as _packed_sum needs
    groups: dict = {}
    for symmono, c in cs.items():
        img = _packed_image(symmono, n, m, FIELD_BITS)
        if img is not None:
            groups.setdefault(img[2], []).append((symmono, c, img))
    out = NPoly.zero(n, m, R)
    for a, terms in groups.items():
        d = _packed_sum(terms, a, n, m, R, den)
        if d:
            out = out + NPoly._packed(n, m, R, d, key_width(max(a)))
    return out


def verify_relation(g: GenPoly, n: int) -> bool:
    """Vanishing along both routes: evaluate(g, n).is_zero (route 1), then
    genpoly_expand(g, n).is_zero (route 2), in a finite ambient n."""
    _checked_int(n, "slot count", 1)
    return evaluate(g, n).is_zero and genpoly_expand(g, n).is_zero
