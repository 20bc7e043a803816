"""Classical symmetric functions in one alphabet: Newton, e-basis, powering.

A polynomial in e_1, e_2, ... is a GenPoly(1, R) in the symbols E[i;(1)].
"""

import itertools
import random
from fractions import Fraction

import pytest

import multisym
from conftest import eval_at, ref_e1_image, ref_plethysm_P
from multisym import reference
from multisym.cli import REWRITE_MAX_PLETHYSM
from multisym.coeffring import QQ, ZZ, Zmod
from multisym.polyring import NPoly
from multisym.reference import genpoly_to_e1
from multisym.rewrite import GenPoly, newton_p, plethysm_P
from refimpl import (elementary_npoly, epoly_substitute, epoly_to_npoly,
                     plethysm_P_by_elimination, sn_act, to_e_basis)


def e(i, ring=ZZ):
    return GenPoly.symbol(i, (1,), 1, ring)


def var(j, N, ring):
    """The j-th of N variables: x_1(j) of NPoly(N, 1), where S_N permutes slots."""
    return NPoly.variable(1, j, N, 1, ring)


def test_epoly_arithmetic_and_text():
    # E[i;(1)] has degree i
    f = e(1) * e(1) - e(2).scale(3)
    assert f.text() == "E[1;(1)]^2 - 3*E[2;(1)]"
    assert f.multidegrees() == {(2,)}
    assert (f + GenPoly.one(1, ZZ)).multidegrees() == {(0,), (2,)}
    assert (f - f).is_zero
    assert f.max_symbol_degree() == 2
    assert (e(2) ** 3).multidegrees() == {(6,)}
    assert GenPoly.zero(1, ZZ).multidegrees() == set()


def test_newton_small():
    assert newton_p(1) == e(1)
    assert newton_p(2) == e(1) * e(1) - e(2).scale(2)
    assert newton_p(3) == e(1) ** 3 - (e(1) * e(2)).scale(3) + e(3).scale(3)
    with pytest.raises(ValueError):
        newton_p(0)


def test_newton_numeric():
    # p_k really is the power sum once the e_i become elementary polynomials
    rng = random.Random("newton")
    for k in (1, 2, 3, 4, 5):
        N = k + 2
        got = epoly_to_npoly(newton_p(k), N, ZZ)
        pts = [tuple(rng.randint(-4, 4) for _ in range(N)) for _ in range(6)]
        for pt in pts:
            assert eval_at(got, pt) == sum(v ** k for v in pt)


def test_elementary_npoly():
    got = elementary_npoly(2, 3, ZZ)
    a, b, c = (var(j, 3, ZZ) for j in (1, 2, 3))
    assert got == a * b + a * c + b * c
    assert elementary_npoly(0, 3, ZZ) == NPoly.one(3, 1, ZZ)
    assert elementary_npoly(4, 3, ZZ).is_zero


def test_to_e_basis_examples():
    a, b = (var(j, 2, QQ) for j in (1, 2))
    assert to_e_basis((a + b) ** 2) == e(1, QQ) * e(1, QQ)
    assert to_e_basis(a * a + b * b) == e(1, QQ) * e(1, QQ) - e(2, QQ).scale(QQ.embed(2))
    assert to_e_basis(elementary_npoly(2, 3, QQ)) == e(2, QQ)
    assert to_e_basis(NPoly.zero(3, 1, QQ)).is_zero


def test_to_e_basis_keeps_the_ring():
    a, b = (var(j, 2, QQ) for j in (1, 2))
    got = to_e_basis((a + b).scale(Fraction(1, 2)))
    assert got.ring == QQ
    assert dict(got.terms) == {(((1, (1,)), 1),): Fraction(1, 2)}
    F7 = Zmod(7)
    c, d = (var(j, 2, F7) for j in (1, 2))
    got = to_e_basis((c * d).scale(3))
    assert got.ring == F7 and got == e(2, F7).scale(3)


def test_to_e_basis_rejections():
    a, b = (var(j, 2, QQ) for j in (1, 2))
    with pytest.raises(ValueError):
        to_e_basis(a)  # not symmetric
    with pytest.raises(ValueError):
        to_e_basis((a + b) ** 3)  # degree exceeds the variable count
    # S_N permutes the slots of NPoly(N, 1); with m > 1 a slot is no variable
    for f in (NPoly.zero(2, 2, QQ), NPoly.one(1, 2, QQ)):
        with pytest.raises(ValueError):
            to_e_basis(f)


def test_to_e_basis_round_trip():
    rng = random.Random("ebasis")
    for _ in range(10):
        N = rng.choice([2, 3, 4])
        f = NPoly.zero(N, 1, QQ)
        for _ in range(3):
            mu = tuple(rng.randint(0, 1) for _ in range(N))
            f = f + NPoly.monomial(mu, N, 1, QQ, QQ.embed(rng.randint(-2, 3)))
        sym = NPoly.zero(N, 1, QQ)
        for perm in itertools.permutations(range(1, N + 1)):
            sym = sym + sn_act(perm, f)
        ep = to_e_basis(sym)
        assert epoly_to_npoly(ep, N, QQ) == sym


def test_powered_alphabet_small():
    assert plethysm_P(1, 1) == e(1)
    assert plethysm_P(3, 1) == e(3)
    assert plethysm_P(1, 2) == e(1) * e(1) - e(2).scale(2)
    assert plethysm_P(2, 2) == \
        e(2) * e(2) - (e(1) * e(3)).scale(2) + e(4).scale(2)
    for k in range(1, 9):
        assert plethysm_P(1, k) == newton_p(k)


def test_powered_alphabet_is_homogeneous():
    cases = [(h, k) for h in range(1, 5) for k in range(1, 5)] + [(1, 5)]
    for h, k in cases:
        P = plethysm_P(h, k)
        assert P.ring == ZZ and P.multidegrees() == {(h * k,)}
        assert P.max_symbol_degree() <= h * k
        assert all(isinstance(c, int) for c in P.terms.values())


def test_powered_alphabet_numeric():
    # evaluate e_h(x^k) directly on points and compare
    rng = random.Random("plethnum")
    for h, k in [(2, 2), (2, 3), (3, 2)]:
        N = h * k
        P = plethysm_P(h, k)
        direct = NPoly.zero(N, 1, ZZ)
        for sub in itertools.combinations(range(N), h):
            mu = tuple(k if i in sub else 0 for i in range(N))
            direct = direct + NPoly.monomial(mu, N, 1, ZZ, ZZ.one)
        via = epoly_to_npoly(P, N, ZZ)
        assert via == direct


def test_powered_alphabet_matches_elimination():
    for h, k in [(1, 3), (2, 2), (2, 3), (3, 2)]:
        assert plethysm_P(h, k) == plethysm_P_by_elimination(h, k)


def test_powered_alphabet_matches_the_power_sum_route():
    # every P_{h,k} the plethysm budget admits
    top = REWRITE_MAX_PLETHYSM
    for k in range(1, top + 1):
        for h in range(top // k + 1):
            assert plethysm_P(h, k) == ref_plethysm_P(h, k)


@pytest.mark.parametrize("cached", [False, True], ids=["cold", "warm"])
def test_classical_recursions_refuse_bools_and_non_ints(cached):
    # a bad argument never finds the cache entry of the int it equals
    multisym.clear_caches()
    if cached:
        newton_p(1), newton_p(2), plethysm_P(0, 2), plethysm_P(1, 2), plethysm_P(2, 2)
    sizes = newton_p.cache_info().currsize, plethysm_P.cache_info().currsize
    for k in (True, 1.0, 2.0, "2", 0, -1):
        with pytest.raises(ValueError):
            newton_p(k)
    for h, k in ((True, 2), (False, 2), (1.0, 2), (2.0, 2), ("2", 2), (-1, 2),
                 (1, True), (2, 2.0), (2, 0)):
        with pytest.raises(ValueError):
            plethysm_P(h, k)
    assert (newton_p.cache_info().currsize, plethysm_P.cache_info().currsize) == sizes


def _outcome(f, *args):
    try:
        return f(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


@pytest.mark.parametrize("ring", [QQ, Zmod(5), Zmod(7)], ids=lambda r: r.to_string())
def test_e1_alphabet_matches_the_power_sum_route(monkeypatch, ring):
    # genpoly_to_e1 with Newton's identity, then with e_i's power-sum
    # expansion: equal images, and the same ZeroDivisionError over Z/p, p <= i
    cases = []
    for m, nus in ((1, [(1,), (2,), (3,)]), (2, [(1, 0), (0, 1), (1, 1), (2, 1)])):
        for i in range(1, 9):
            for nu in nus:
                s = GenPoly.symbol(i, nu, m, ring)
                t = GenPoly.symbol(1 + i % 3, nus[-1], m, ring)
                cases.append(s)
                cases.append((s * s * t).scale(ring.embed(3)) - t + GenPoly.one(m, ring))
    got = [_outcome(genpoly_to_e1, g) for g in cases]
    monkeypatch.setattr(reference, "_e1_image", ref_e1_image)
    assert got == [_outcome(genpoly_to_e1, g) for g in cases]
    raised = got.count(ZeroDivisionError)
    assert raised == 0 if ring == QQ else raised > 0


def test_epoly_substitute_generic():
    f = e(1) * e(2) - e(3).scale(4) + GenPoly.const(7, 1, ZZ)
    vals = {1: Fraction(2), 2: Fraction(-1, 2), 3: Fraction(3)}
    got = epoly_substitute(f, lambda i: vals[i], Fraction(1),
                           lambda c, x: Fraction(c) * x)
    assert got == Fraction(2) * Fraction(-1, 2) - 4 * Fraction(3) + 7
