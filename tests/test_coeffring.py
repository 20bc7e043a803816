"""Coefficient rings: string forms, embeddings, axioms, inverses."""

import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import multisym
from multisym.coeffring import PRIME_BOUND, QQ, Ring, ZZ, Zmod, is_prime


def test_string_round_trip():
    for s in ["Z", "Q", "Zmod:2", "Zmod:3", "Zmod:1000003"]:
        assert Ring.from_string(s).to_string() == s


def test_from_string_rejects_junk():
    for s in ["z", "GF2", "Zmod:4", "Zmod:1", "Zmod:-7", "Zmod:x", "",
              "Zmod: 7", "Zmod:+7", "Zmod:\u0667", "Zmod:1_000_003"]:  # U+0667 ARABIC-INDIC SEVEN
        with pytest.raises(ValueError):
            Ring.from_string(s)


def test_modulus_must_be_prime():
    with pytest.raises(ValueError):
        Zmod(91)  # 7 * 13
    assert Zmod(1000003).p == 1000003
    assert Zmod(2).to_string() == "Zmod:2"


def test_primality_is_proven_below_the_bound_and_refused_above():
    assert PRIME_BOUND == 3317044064679887385961981 == 1287836182261 * 2575672364521
    assert is_prime(2**61 - 1)
    assert Zmod(2**61 - 1).p == 2**61 - 1
    # composite, and a strong pseudoprime to every prime base up to 37
    assert not is_prime(399165290221 * 798330580441)
    assert not is_prime(PRIME_BOUND - 2)  # odd, divisible by 3
    for p in (PRIME_BOUND, PRIME_BOUND + 2, 2**89 - 1):
        with pytest.raises(ValueError, match="only below"):
            is_prime(p)
        with pytest.raises(ValueError):
            Ring.from_string(f"Zmod:{p}")
    assert [p for p in range(50) if is_prime(p)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_embed_is_a_ring_map():
    rng = random.Random("embed")
    for ring in (ZZ, QQ, Zmod(2), Zmod(97)):
        for _ in range(50):
            a, b = rng.randint(-40, 40), rng.randint(-40, 40)
            assert ring.embed(a + b) == ring.add(ring.embed(a), ring.embed(b))
            assert ring.embed(a * b) == ring.mul(ring.embed(a), ring.embed(b))
    assert Zmod(5).embed(5) == 0
    assert Zmod(5).embed(-1) == 4
    assert QQ.embed(3) == Fraction(3)


def test_axioms_randomized():
    rng = random.Random("axioms")
    for ring in (ZZ, QQ, Zmod(2), Zmod(97)):
        elems = [ring.embed(rng.randint(-9, 9)) for _ in range(30)]
        if ring is QQ:
            elems += [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(10)]
        for _ in range(80):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert ring.add(a, b) == ring.add(b, a)
            assert ring.mul(a, b) == ring.mul(b, a)
            assert ring.mul(a, ring.add(b, c)) == \
                ring.add(ring.mul(a, b), ring.mul(a, c))
            assert ring.add(a, ring.neg(a)) == ring.zero
            assert ring.mul(a, ring.one) == a
            assert ring.sub(a, b) == ring.add(a, ring.neg(b))


def test_power():
    assert ZZ.power(ZZ.embed(3), 4) == 81
    assert Zmod(7).power(Zmod(7).embed(3), 6) == 1
    assert QQ.power(Fraction(1, 2), 3) == Fraction(1, 8)
    with pytest.raises(ValueError):
        ZZ.power(2, -1)


def test_inverses():
    F = Zmod(97)
    for v in range(1, 97):
        assert F.mul(v, F.inv(v)) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    assert QQ.inv(Fraction(3, 4)) == Fraction(4, 3)
    with pytest.raises(ValueError):
        ZZ.inv(2)
    assert not ZZ.has_division
    assert QQ.has_division and F.has_division


def test_coeff_parse_and_format():
    assert ZZ.parse_coeff("-7") == -7
    assert ZZ.format_coeff(-7) == "-7"
    assert QQ.parse_coeff("3/2") == Fraction(3, 2)
    assert QQ.format_coeff(Fraction(-3, 2)) == "-3/2"
    assert QQ.format_coeff(Fraction(4, 2)) == "2"
    assert Zmod(5).parse_coeff("7") == 2
    assert Zmod(5).format_coeff(3) == "3"
    with pytest.raises(ValueError):
        ZZ.parse_coeff("3/2")
    with pytest.raises(ValueError):
        QQ.parse_coeff("three")


def test_coeff_parse_accepts_canonical_forms():
    assert ZZ.parse_coeff("+7") == 7
    assert QQ.parse_coeff("-7") == Fraction(-7)
    assert QQ.parse_coeff("6/3") == Fraction(2)
    assert QQ.parse_coeff("-9/7") == Fraction(-9, 7)
    assert isinstance(QQ.parse_coeff("6/3"), Fraction)
    assert Zmod(7).parse_coeff("-1") == 6


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(5)])
@pytest.mark.parametrize("text", [
    "1/0", "0/0", "-3/00", " 1", "1 ", " 1_0 ", "1_0", "1/1_0", "1\n", "\t2",
    "\u0661", "\uff17", "1\u0660", "", "-", "+", "1/", "/2", "1/-2", "1.5",
    "1e3", "0x10", "1/2/3",
])
def test_parse_coeff_rejects_non_canonical_strings(ring, text):
    with pytest.raises(ValueError):
        ring.parse_coeff(text)


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(5)])
@pytest.mark.parametrize("value", [5, 1.5, None, ["1"], True])
def test_parse_coeff_rejects_non_strings(ring, value):
    with pytest.raises(ValueError):
        ring.parse_coeff(value)


def test_ring_is_immutable_and_compares_by_value():
    r = Zmod(7)
    assert r == Ring("Zp", 7) and hash(r) == hash(Ring("Zp", 7))
    assert r != Zmod(5) and ZZ != QQ and ZZ != "Z"
    assert len({ZZ, QQ, Ring("Z"), Zmod(7), r}) == 3
    assert repr(r) == "Ring(Zmod:7)" and repr(QQ) == "Ring(Q)"
    assert copy.deepcopy(r) == r and pickle.loads(pickle.dumps(QQ)) == QQ
    for name in ("kind", "p", "zero", "one", "other"):
        with pytest.raises(AttributeError):
            setattr(r, name, 5)
    with pytest.raises(AttributeError):
        del r.p
    assert (r.kind, r.p, r.zero, r.one) == ("Zp", 7, 0, 1)


def test_cli_import_does_not_load_dataclasses():
    """A fresh CLI process imports no more of the standard library than it
    uses; Ring is a plain class, so dataclasses (and with it inspect, ast,
    dis and tokenize) stays unloaded."""
    src = str(Path(multisym.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, multisym.cli; "
            "print(' '.join(sorted(set(sys.modules) & "
            "{'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'})))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""


def test_coerce_checks_and_canonicalises_a_coefficient():
    assert ZZ.coerce(-5) == -5 and type(ZZ.coerce(-5)) is int
    assert Zmod(7).coerce(-1) == 6 and Zmod(7).coerce(14) == 0
    assert QQ.coerce(3) == 3 and type(QQ.coerce(3)) is Fraction
    assert QQ.coerce(Fraction(6, 4)) == Fraction(3, 2)
    for ring in (ZZ, QQ, Zmod(7)):
        for bad in (True, False, 0.5, 1.0, "1", None, [1]):
            with pytest.raises(ValueError):
                ring.coerce(bad)
    for ring in (ZZ, Zmod(7)):
        with pytest.raises(ValueError):
            ring.coerce(Fraction(1, 2))
        with pytest.raises(ValueError):
            ring.coerce(Fraction(2))
