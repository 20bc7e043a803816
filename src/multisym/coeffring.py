"""Exact coefficient rings: the integers, the rationals, and prime fields.

A :class:`Ring` is an immutable arithmetic context shared by every other
module.  Elements are plain Python values (``int`` for the integers and for
prime fields, stored reduced to ``0..p-1``; ``Fraction`` for the rationals),
so structural equality is mathematical equality and every element hashes.

Division is deliberately not part of the common contract; the rationals and
the prime fields advertise it through :attr:`Ring.has_division`.

The hot loops of the package run on Python ints in every ring, as FLINT's
``fmpq_poly`` does over Q (Hart, "FLINT: Fast Library for Number Theory",
ICMS 2010).  :meth:`Ring.lift` writes a dict of coefficients as integer
numerators over one common denominator: the identity with denominator 1
over Z and Z/p, the lcm of the denominators over Q.  A caller adds
integer numerators times integer structure constants into one dict, and
:meth:`Ring.settle` is the one place where the ring enters: it reduces
mod p once over Z/p, divides each surviving sum by the denominator once
over Q, and drops the zeros.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

__all__ = ["Ring", "ZZ", "QQ", "Zmod", "is_prime", "PRIME_BOUND"]

# Canonical coefficient strings: ASCII digits, an optional sign, and for the
# rationals an optional denominator; no spaces or underscores.
_COEFF_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")
_MODULUS_RE = re.compile(r"[0-9]+")  # the p of "Zmod:<p>": ASCII digits, no sign

# Deterministic Miller-Rabin witnesses: the primes up to 41 decide
# primality exactly below PRIME_BOUND, the least odd composite that is a
# strong pseudoprime to all of them (Sorenson & Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 2017).  The primes up to
# 37 alone pass 318665857834031151167461 = 399165290221 * 798330580441.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime; proven for n < PRIME_BOUND, refused above."""
    if n >= PRIME_BOUND:
        raise ValueError(f"primality is decided only below {PRIME_BOUND}, got {n}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Ring:
    """One of Z, Q, or Z/p with p prime.

    All operations are total and pure; a Ring is safe to share freely.  It
    is immutable: setting or deleting an attribute raises AttributeError.
    Two rings are equal when kind and modulus agree.
    """

    __slots__ = ("kind", "p", "zero", "one")

    kind: str  # "Z" | "Q" | "Zp"
    p: int | None

    def __init__(self, kind: str, p: int | None = None) -> None:
        if kind not in ("Z", "Q", "Zp"):
            raise ValueError(f"unknown ring kind: {kind!r}")
        if kind == "Zp":
            if not isinstance(p, int) or p < 2 or not is_prime(p):
                raise ValueError(f"modulus must be a prime >= 2, got {p!r}")
        elif p is not None:
            raise ValueError("only prime fields take a modulus")
        init = object.__setattr__
        init(self, "kind", kind)
        init(self, "p", p)
        # bound once per ring: the constants are immutable, so sharing is safe
        init(self, "zero", Fraction(0) if kind == "Q" else 0)
        init(self, "one", Fraction(1) if kind == "Q" else 1)

    def __setattr__(self, name, value):
        raise AttributeError(f"Ring is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Ring is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return (Ring, (self.kind, self.p))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self) -> int:
        return hash((self.kind, self.p))

    # construction / naming

    @staticmethod
    def from_string(s: str) -> "Ring":
        if not isinstance(s, str):
            raise ValueError(f"ring must be given as a string, got {s!r}")
        if s == "Z":
            return ZZ
        if s == "Q":
            return QQ
        if s.startswith("Zmod:"):
            digits = s[len("Zmod:"):]
            try:
                p = int(digits) if _MODULUS_RE.fullmatch(digits) else None
            except ValueError:  # over the interpreter's digit limit
                p = None
            if p is None:
                raise ValueError(f"bad modulus in ring string {s!r}")
            return Ring("Zp", p)
        raise ValueError(f"unknown ring string {s!r} (expected Z, Q or Zmod:<p>)")

    def to_string(self) -> str:
        if self.kind == "Zp":
            return f"Zmod:{self.p}"
        return self.kind

    def __repr__(self) -> str:
        return f"Ring({self.to_string()})"

    # arithmetic

    @property
    def has_division(self) -> bool:
        return self.kind in ("Q", "Zp")

    def embed(self, k: int):
        """The canonical image of the integer k, a ring homomorphism."""
        if self.kind == "Z":
            return k
        if self.kind == "Q":
            return Fraction(k)
        return k % self.p

    def add(self, a, b):
        if self.kind == "Zp":
            return (a + b) % self.p
        return a + b

    def sub(self, a, b):
        if self.kind == "Zp":
            return (a - b) % self.p
        return a - b

    def neg(self, a):
        if self.kind == "Zp":
            return (-a) % self.p
        return -a

    def mul(self, a, b):
        if self.kind == "Zp":
            return (a * b) % self.p
        return a * b

    def power(self, a, k: int):
        if k < 0:
            raise ValueError("negative exponent")
        if self.kind == "Zp":
            return pow(a, k, self.p)
        return a ** k

    def inv(self, a):
        if self.kind == "Q":
            if a == 0:
                raise ZeroDivisionError("inverse of 0")
            return 1 / Fraction(a)
        if self.kind == "Zp":
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(a, self.p - 2, self.p)
        raise ValueError("the integers have no division")

    def is_zero(self, a) -> bool:
        return a == self.zero

    def coerce(self, c):
        """c checked and made canonical: over Z and Z/p an int that is not a
        bool, reduced into [0, p) over Z/p; over Q an int or a Fraction, as
        a Fraction.  Anything else raises ValueError."""
        if type(c) is int:
            if self.kind == "Q":
                return Fraction(c)
            return c if self.p is None else c % self.p
        if type(c) is Fraction and self.kind == "Q":
            return c
        raise ValueError(f"bad coefficient {c!r} in {self.to_string()}")

    def lift(self, terms: dict) -> tuple[dict, int]:
        """Integer numerators over one denominator: (ints, den) with
        terms[k] == ints[k] / den.

        The identity with den = 1 over Z and Z/p; over Q den is the lcm of
        the denominators.  The result may be terms itself: do not mutate it.
        """
        if self.kind != "Q":
            return terms, 1
        den = lcm(*[c.denominator for c in terms.values()])
        return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den

    def settle(self, raw: dict, den: int) -> dict:
        """Ring elements raw[k] / den, zeros dropped.

        raw holds exact sums of products of lifted numerators and integers:
        reduced mod p once over Z/p, divided by den once over Q (where den
        may be 1 and the sums Fractions).  Over Z and Z/p den is 1.
        """
        if self.kind == "Q":
            return {k: Fraction(c, den) for k, c in raw.items() if c}
        p = self.p
        if p is not None:
            return {k: r for k, c in raw.items() if (r := c % p)}
        return {k: c for k, c in raw.items() if c}

    # serialization

    def parse_coeff(self, s: str):
        """Parse "17", "-3" or (rationals only) "3/2".

        ASCII digits only, without surrounding spaces or underscores; a
        fraction need not be reduced but its denominator must be nonzero.
        """
        if not isinstance(s, str):
            raise ValueError(f"coefficient must be given as a string, got {s!r}")
        if not _COEFF_RE.fullmatch(s):
            raise ValueError(f"bad coefficient string {s!r}")
        num, _, den = s.partition("/")
        if den:
            if self.kind != "Q":
                raise ValueError(f"fractional coefficient {s!r} outside Q")
            if not int(den):
                raise ValueError(f"zero denominator in coefficient {s!r}")
            return Fraction(int(num), int(den))
        return self.embed(int(num))

    format_coeff = staticmethod(str)  # the text of an element, in every ring


ZZ = Ring("Z")
QQ = Ring("Q")


def Zmod(p: int) -> Ring:
    return Ring("Zp", p)
