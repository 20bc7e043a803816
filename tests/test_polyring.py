"""Polynomials in n*m slot variables, one-slot polynomials, and the slot action."""

import importlib
import pkgutil
import random

import pytest

import multisym
from conftest import eval_at
from multisym.coeffring import QQ, ZZ, Zmod
from multisym.polyring import (NPoly, check_perm, flat_index,
                               npoly_multidegree, npoly_text, parse_npoly,
                               sn_act, subst_slot)


def x(i, j, n, m, ring=ZZ):
    return NPoly.variable(i, j, n, m, ring)


def y(i, m, ring=ZZ):
    """y_i of R[y_1..y_m], the one-slot ring: x_i(1) of NPoly(1, m)."""
    return NPoly.variable(i, 1, 1, m, ring)


def random_npoly(rng, n, m, ring, deg=2, terms=3):
    p = NPoly.zero(n, m, ring)
    for _ in range(terms):
        exps = tuple(rng.randint(0, deg) for _ in range(n * m))
        c = ring.embed(rng.choice([-2, -1, 1, 2, 3]))
        p = p + NPoly.monomial(exps, n, m, ring, c)
    return p


def test_flat_layout():
    # x_i(j) lives at slot-major position (j-1)*m + (i-1)
    assert flat_index(1, 1, 3) == 0
    assert flat_index(3, 1, 3) == 2
    assert flat_index(1, 2, 3) == 3
    assert npoly_multidegree((1, 0, 2, 1), 2) == (3, 1)


def test_one_slot_arithmetic():
    a, b = y(1, 2), y(2, 2)
    f = (a + b) ** 2
    g = a * a + a * b + a * b + b * b
    assert f == g
    assert (f - f).is_zero
    assert eval_at(f, [2, 3]) == 25
    assert f.multidegrees() == {(2, 0), (1, 1), (0, 2)}
    assert f.terms.get((0, 0), ZZ.zero) == 0
    assert (f + NPoly.one(1, 2, ZZ)).terms.get((0, 0), ZZ.zero) == 1


def test_sn_act_permutes_one_variable_slots():
    # N variables are N slots of one variable; S_N acts by sn_act
    a, b, c = (x(1, j, 3, 1) for j in (1, 2, 3))
    f = a * a * b + c
    # the permutation sends variable j to variable sigma[j-1]
    g = sn_act((2, 3, 1), f)
    assert g == b * b * c + a


def test_char_two_arithmetic():
    F = Zmod(2)
    p = random_npoly(random.Random("f2"), 2, 2, F)
    assert (p + p).is_zero
    assert p * NPoly.one(2, 2, F) == p


def test_subst_slot_examples():
    f = y(1, 2) * y(2, 2)  # y1*y2
    g = subst_slot(f, 3, 3)
    assert g == x(1, 3, 3, 2) * x(2, 3, 3, 2)
    h = subst_slot(y(1, 2) + y(2, 2), 1, 2)
    assert h == x(1, 1, 2, 2) + x(2, 1, 2, 2)
    const = NPoly.one(1, 2, ZZ).scale(ZZ.embed(5))
    assert subst_slot(const, 2, 2) == NPoly.one(2, 2, ZZ).scale(ZZ.embed(5))
    # wide packed fields move with the slot
    assert subst_slot(y(1, 2) ** 200, 2, 3) == x(1, 2, 3, 2) ** 200
    with pytest.raises(ValueError):
        subst_slot(x(1, 1, 2, 2), 1, 2)  # not a one-slot polynomial
    for j in (0, 3, True, 1.0):
        with pytest.raises(ValueError):
            subst_slot(f, j, 2)


def test_subst_slot_is_a_ring_map():
    rng = random.Random("subst")
    for _ in range(20):
        m, n = rng.choice([(1, 2), (2, 3), (3, 2)])
        f = NPoly.zero(1, m, ZZ)
        g = NPoly.zero(1, m, ZZ)
        for _ in range(3):
            mu = tuple(rng.randint(0, 2) for _ in range(m))
            f = f + NPoly.monomial(mu, 1, m, ZZ, ZZ.embed(rng.randint(-2, 2)))
            mu = tuple(rng.randint(0, 2) for _ in range(m))
            g = g + NPoly.monomial(mu, 1, m, ZZ, ZZ.embed(rng.randint(-2, 2)))
        j = rng.randint(1, n)
        assert subst_slot(f * g, j, n) == subst_slot(f, j, n) * subst_slot(g, j, n)
        assert subst_slot(f + g, j, n) == subst_slot(f, j, n) + subst_slot(g, j, n)


def test_sn_act_examples():
    # swap the two slots
    p = x(1, 1, 2, 2) + x(2, 2, 2, 2) ** 2
    q = sn_act((2, 1), p)
    assert q == x(1, 2, 2, 2) + x(2, 1, 2, 2) ** 2
    # identity permutation
    assert sn_act((1, 2), p) == p
    # 3-cycle moves slot content 1 -> 2 -> 3 -> 1
    r = x(1, 1, 3, 1)
    assert sn_act((2, 3, 1), r) == x(1, 2, 3, 1)


def test_sn_act_is_an_action_by_ring_maps():
    rng = random.Random("snact")
    import itertools
    for _ in range(15):
        n, m = rng.choice([(2, 2), (3, 1), (3, 2), (4, 1)])
        perms = list(itertools.permutations(range(1, n + 1)))
        s, t = rng.choice(perms), rng.choice(perms)
        p = random_npoly(rng, n, m, ZZ)
        q = random_npoly(rng, n, m, ZZ)
        assert sn_act(s, p * q) == sn_act(s, p) * sn_act(s, q)
        assert sn_act(s, p + q) == sn_act(s, p) + sn_act(s, q)
        st = tuple(s[t[j] - 1] for j in range(n))  # composition s after t
        assert sn_act(st, p) == sn_act(s, sn_act(t, p))


def test_check_perm():
    check_perm((2, 1, 3), 3)
    with pytest.raises(ValueError):
        check_perm((1, 1, 2), 3)
    with pytest.raises(ValueError):
        check_perm((1, 2), 3)


def test_multidegree_split():
    rng = random.Random("mdeg")
    p = random_npoly(rng, 3, 2, QQ, deg=2, terms=6)
    parts = [p.multidegree_component(a) for a in p.multidegrees()]
    total = NPoly.zero(3, 2, QQ)
    for part in parts:
        assert len(part.multidegrees()) <= 1
        total = total + part
    assert total == p
    assert p.multidegree_component((99, 99)).is_zero


def test_multidegree_component_commutes_with_slot_action():
    # permuting slots leaves each variable's index intact, so it cannot
    # move a term between multidegree components
    import itertools
    rng = random.Random("mdeg-act")
    for n, m in ((2, 2), (3, 2), (3, 3)):
        perms = list(itertools.permutations(range(1, n + 1)))
        for _ in range(10):
            s = rng.choice(perms)
            p = random_npoly(rng, n, m, ZZ, deg=2, terms=4)
            assert sn_act(s, p).multidegrees() == p.multidegrees()
            for a in p.multidegrees():
                assert (sn_act(s, p).multidegree_component(a)
                        == sn_act(s, p.multidegree_component(a)))


def test_text_round_trip_examples():
    p = x(1, 1, 2, 2) * x(2, 2, 2, 2) + x(1, 2, 2, 2)
    s = npoly_text(p)
    assert parse_npoly(s, 2, 2, ZZ) == p
    q = parse_npoly("x1(1)*x2(2) + x1(2)*x2(1)", 2, 2, ZZ)
    assert q == x(1, 1, 2, 2) * x(2, 2, 2, 2) + x(1, 2, 2, 2) * x(2, 1, 2, 2)
    assert parse_npoly("3*x1(1)^2 - x1(2)", 2, 1, ZZ) == \
        (x(1, 1, 2, 1) ** 2).scale(ZZ.embed(3)) - x(1, 2, 2, 1)
    assert parse_npoly("0", 2, 1, ZZ).is_zero
    assert npoly_text(NPoly.zero(2, 1, ZZ)) == "0"


def test_text_round_trip_random():
    rng = random.Random("text")
    for _ in range(25):
        n, m = rng.choice([(1, 1), (2, 2), (3, 2), (2, 3)])
        ring = rng.choice([ZZ, QQ, Zmod(5)])
        p = random_npoly(rng, n, m, ring)
        assert parse_npoly(npoly_text(p), n, m, ring) == p


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_npoly("x3(1)", 2, 2, ZZ)  # family out of range
    with pytest.raises(ValueError):
        parse_npoly("x1(3)", 2, 2, ZZ)  # slot out of range
    with pytest.raises(ValueError):
        parse_npoly("x1(1) +* x1(2)", 2, 2, ZZ)



@pytest.mark.parametrize("module", ["multisym"] + [
    f"multisym.{info.name}" for info in pkgutil.iter_modules(multisym.__path__)])
def test_public_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
