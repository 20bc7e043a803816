"""Exponent-vector helpers: order, primitivity, enumeration."""

import itertools
import math
import random

import pytest

from multisym.monomial import (check_mono, compositions, grlex_key,
                               is_primitive, mono_cmp, mono_mul, mono_one, mono_pow,
                               monomials_of_total_degree, monomials_up_to,
                               primitive_decompose, total_degree)


def test_mul_and_pow():
    assert mono_mul((1, 0), (0, 2)) == (1, 2)
    assert mono_mul((2, 1), mono_one(2)) == (2, 1)
    assert mono_pow((1, 2), 3) == (3, 6)
    assert mono_pow((1, 2), 0) == (0, 0)
    with pytest.raises(ValueError):
        mono_mul((1,), (1, 0))
    rng = random.Random("mono-mul")
    sample = list(itertools.product(range(4), repeat=3))
    for _ in range(50):
        a, b, c = (rng.choice(sample) for _ in range(3))
        assert mono_mul(a, b) == mono_mul(b, a)
        assert mono_mul(mono_mul(a, b), c) == mono_mul(a, mono_mul(b, c))


def test_graded_lex_examples():
    # degree first, then lexicographic on the exponent tuple
    assert grlex_key((0, 1)) < grlex_key((1, 0))
    assert grlex_key((1, 0)) < grlex_key((0, 2))
    assert grlex_key((1, 1)) < grlex_key((2, 0))
    assert mono_cmp((0, 1), (1, 0)) < 0
    assert mono_cmp((1, 0), (1, 0)) == 0
    assert mono_cmp((2, 0), (1, 1)) > 0


def test_graded_lex_total_order():
    sample = list(itertools.product(range(4), repeat=3))
    rng = random.Random("order")
    for _ in range(200):
        a, b, c = (rng.choice(sample) for _ in range(3))
        assert (mono_cmp(a, b) == 0) == (a == b)
        assert mono_cmp(a, b) == -mono_cmp(b, a)
        if mono_cmp(a, b) < 0 and mono_cmp(b, c) < 0:
            assert mono_cmp(a, c) < 0
    ordered = sorted(sample, key=grlex_key)
    assert total_degree(ordered[0]) <= total_degree(ordered[-1])
    for u, v in zip(ordered, ordered[1:]):
        assert mono_cmp(u, v) < 0


def test_primitive_decompose_examples():
    assert primitive_decompose((2, 4)) == ((1, 2), 2)
    assert primitive_decompose((3, 0)) == ((1, 0), 3)
    assert primitive_decompose((1, 1)) == ((1, 1), 1)
    assert is_primitive((2, 3)) and not is_primitive((2, 2))
    with pytest.raises(ValueError):
        primitive_decompose((0, 0))


def test_check_mono_refuses_booleans_and_floats():
    """A boolean is an int subclass but never an exponent, as in the
    constructors."""
    for mu in [(True, 2), (1, False), (True,), (1.0, 2)]:
        with pytest.raises(ValueError):
            check_mono(mu)
        with pytest.raises(ValueError):
            primitive_decompose(mu)
    check_mono((1, 2))


def test_primitive_decompose_exhaustive():
    # every monomial of total degree <= 8 in up to four variables
    for m in (1, 2, 3, 4):
        for d in range(1, 9):
            for mu in monomials_of_total_degree(m, d):
                nu, k = primitive_decompose(mu)
                assert is_primitive(nu)
                assert k == math.gcd(*mu)
                assert mono_pow(nu, k) == mu


def test_compositions_and_enumeration():
    for total, parts in [(0, 3), (4, 1), (3, 3), (5, 2)]:
        seen = list(compositions(total, parts))
        assert len(seen) == math.comb(total + parts - 1, parts - 1)
        assert len(set(seen)) == len(seen)
        assert all(sum(c) == total and len(c) == parts for c in seen)
    assert list(compositions(2, 2)) in ([(0, 2), (1, 1), (2, 0)],
                                        [(2, 0), (1, 1), (0, 2)])


def test_monomials_of_total_degree():
    got = monomials_of_total_degree(2, 2)
    assert sorted(got) == [(0, 2), (1, 1), (2, 0)]
    assert monomials_of_total_degree(3, 0) == [(0, 0, 0)]


def test_monomials_up_to_box():
    got = monomials_up_to(2, (2, 1))
    # positive degree, componentwise below the bound, graded-lex sorted
    assert got == sorted(got, key=grlex_key)
    assert set(got) == {(0, 1), (1, 0), (1, 1), (2, 0), (2, 1)}
    assert monomials_up_to(1, (0,)) == []
