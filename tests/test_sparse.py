"""The shared arithmetic of the three coefficient-dict classes.

NPoly, MsfElement and GenPoly take + - == scale ** and the multidegree
filters from one base, polyring.Sparse.  Each operation is checked here
against a naive reference on plain dicts: coefficients added, negated and
multiplied one at a time with the Ring's own operations, keys compared as
tuples.  NPoly is drawn in two shapes: one slot of two variables,
R[y1, y2], and two slots of two.  The one-slot cases keep the ids
"MPoly-*" of the class that NPoly(1, m) replaced, and with them the same
draws.  GenPoly is drawn in two alphabets: symbols E[i;nu] in two
variables over every ring, and the classical e_i, the symbols E[i;(1)]
of GenPoly(1, ZZ), over Z.  The one-alphabet cases keep the ids "EPoly-*"
of the class that GenPoly(1, ZZ) replaced.
"""

import json
import random
from fractions import Fraction

import pytest

import multisym
from conftest import random_element, run_main
from multisym import msf, polyring
from multisym.coeffring import QQ, ZZ, Zmod
from multisym.monomial import grlex_key
from multisym.msf import INF, MsfElement, alpha_multidegree, e_alpha, make_alpha
from multisym.polyring import AmbientMismatch, NPoly, npoly_multidegree, npoly_text
from multisym.rewrite import GenPoly

RINGS = [ZZ, QQ, Zmod(2), Zmod(3), Zmod(7)]


def _coeff(rng, ring):
    return ring.embed(rng.randint(-3, 3))


def _one_slot(rng, ring):
    return NPoly(1, 2, ring, {(rng.randint(0, 2), rng.randint(0, 2)): _coeff(rng, ring)
                              for _ in range(rng.randint(0, 5))})


def _npoly(rng, ring):
    # an exponent of 200 now and then widens the packed fields
    top = rng.choice([2, 2, 200])
    return NPoly(2, 2, ring, {tuple(rng.randint(0, top) for _ in range(4)): _coeff(rng, ring)
                              for _ in range(rng.randint(0, 5))})


def _msf(rng, ring):
    return random_element(rng, INF, 2, ring, 2, max_terms=4)


def _genpoly(rng, ring):
    monos = [(1, 0), (0, 1), (1, 1), (2, 0)]
    terms = {}
    for _ in range(rng.randint(0, 5)):
        syms = {}
        for _ in range(rng.randint(0, 2)):
            s = (rng.randint(1, 2), rng.choice(monos))
            syms[s] = syms.get(s, 0) + 1
        key = tuple(sorted(syms.items(), key=lambda t: (grlex_key(t[0][1]), t[0][0])))
        terms[key] = _coeff(rng, ring)
    return GenPoly(2, ring, terms)


def _one_alphabet(rng, ring):
    # exponents of e_1, e_2, e_3; GenPoly drops the coefficient 0
    exps = [[rng.randint(0, 2) for _ in range(rng.randint(0, 3))]
            for _ in range(rng.randint(0, 5))]
    return GenPoly(1, ring, {tuple([((i, (1,)), e) for i, e in enumerate(x, 1) if e]):
                             rng.randint(-3, 3) for x in exps})


def _genpoly_degree(symmono):
    deg = [0, 0]
    for (i, nu), e in symmono:
        for t in range(2):
            deg[t] += i * nu[t] * e
    return tuple(deg)


# name: (draw, rings, naive multidegree of a key as .terms spells it, the
# key of the constant monomial); one slot's multidegree is its key
CLASSES = {
    "MPoly": (_one_slot, RINGS, lambda k: k, (0, 0)),
    "NPoly": (_npoly, RINGS, lambda k: npoly_multidegree(k, 2), (0, 0, 0, 0)),
    "MsfElement": (_msf, RINGS, lambda k: alpha_multidegree(k, 2), ()),
    "GenPoly": (_genpoly, RINGS, _genpoly_degree, ()),
    "EPoly": (_one_alphabet, [ZZ], lambda k: (sum(i * e for (i, _), e in k),), ()),
}


def _cases():
    for name, (draw, rings, degree, unit) in CLASSES.items():
        for ring in rings:
            rng = random.Random(f"sparse:{name}:{ring.to_string()}")
            for _ in range(12):
                x, y = draw(rng, ring), draw(rng, ring)
                # y shares x's keys half the time, so that sums cancel
                if rng.random() < 0.5:
                    y = y - x
                yield pytest.param(x, y, degree, unit, id=f"{name}-{ring.to_string()}")


def _naive_sum(R, a: dict, b: dict) -> dict:
    out = {}
    for k in set(a) | set(b):
        c = R.add(a.get(k, R.zero), b.get(k, R.zero))
        if not R.is_zero(c):
            out[k] = c
    return out


def _naive_scale(R, c, a: dict) -> dict:
    return {k: R.mul(c, v) for k, v in a.items() if not R.is_zero(R.mul(c, v))}


def _check(z, like, want: dict):
    """z is of like's class and ambient, holds no zero, and has the terms want."""
    assert type(z) is type(like)
    assert z._ambient() == like._ambient()
    assert not any(z.ring.is_zero(c) for c in z.terms.values())
    assert dict(z.terms) == want
    assert z.is_zero == (not want)


@pytest.mark.parametrize("x, y, degree, unit", list(_cases()))
def test_base_arithmetic_matches_naive_dicts(x, y, degree, unit):
    R = x.ring
    a, b = dict(x.terms), dict(y.terms)
    _check(x + y, x, _naive_sum(R, a, b))
    _check(x - y, x, _naive_sum(R, a, {k: R.neg(v) for k, v in b.items()}))
    _check(-x, x, {k: R.neg(v) for k, v in a.items()})
    _check(x - x, x, {})
    _check(x + (-x), x, {})
    _check(x.scale(R.zero), x, {})
    _check(x.scale(R.embed(2)), x, _naive_scale(R, R.embed(2), a))
    if R.kind == "Zp":
        _check(x.scale(R.p), x, {})
        _check(x.scale(R.p - 1), x, {k: R.neg(v) for k, v in a.items()})
    # equality against the same terms through the public constructor
    assert x == type(x)(*x._ambient(), a)
    assert (x == y) == (a == b) and (x != y) == (a != b)
    assert x.__eq__(a) is NotImplemented
    # powers against repeated products
    one = type(x).one(*x._ambient())
    _check(one, x, {unit: R.one})
    assert x + one != x
    acc = one
    for k in range(4):
        _check(x ** k, x, dict(acc.terms))
        acc = acc * x
    # multidegrees and components; an absent multidegree gives zero
    degs = {degree(k) for k in a}
    assert x.multidegrees() == degs
    for d in degs | {(99,) * len(degree(unit))}:
        _check(x.multidegree_component(d), x, {k: v for k, v in a.items() if degree(k) == d})
    total = type(x).zero(*x._ambient())
    for d in degs:
        total = total + x.multidegree_component(d)
    assert total == x


def test_npoly_width_does_not_change_results():
    wide = NPoly(1, 2, ZZ, {(200, 0): 1, (1, 1): 2})
    narrow = NPoly(1, 2, ZZ, {(1, 1): 2})
    assert wide._w > narrow._w
    assert wide - NPoly(1, 2, ZZ, {(200, 0): 1}) == narrow
    assert (narrow - wide + wide) == narrow
    assert narrow.scale(3).multidegree_component((1, 1)) == NPoly(1, 2, ZZ, {(1, 1): 6})


# the MPoly-* rows are one-slot NPoly pairs
@pytest.mark.parametrize("x, y", [
    (NPoly.one(1, 2, ZZ), NPoly.one(1, 3, ZZ)),
    (NPoly.one(1, 2, ZZ), NPoly.one(1, 2, QQ)),
    (NPoly.one(2, 2, ZZ), NPoly.one(3, 2, ZZ)),
    (NPoly.one(2, 2, Zmod(3)), NPoly.one(2, 2, Zmod(7))),
    (MsfElement.one(INF, 2, ZZ), MsfElement.one(2, 2, ZZ)),
    (MsfElement.one(INF, 2, ZZ), MsfElement.one(INF, 1, ZZ)),
    (GenPoly.one(2, ZZ), GenPoly.one(1, ZZ)),
    (GenPoly.one(2, QQ), GenPoly.one(2, ZZ)),
], ids=["MPoly-m", "MPoly-ring", "NPoly-n", "NPoly-ring", "Msf-n", "Msf-m",
        "GenPoly-m", "GenPoly-ring"])
def test_mismatched_ambients_raise(x, y):
    for op in (lambda: x + y, lambda: x - y, lambda: x * y):
        with pytest.raises(AmbientMismatch):
            op()
    assert x != y


def test_ambient_mismatch_is_one_class():
    assert issubclass(AmbientMismatch, ValueError)
    assert msf.AmbientMismatch is multisym.AmbientMismatch is polyring.AmbientMismatch
    with pytest.raises(AmbientMismatch) as info:
        MsfElement.one(INF, 2, ZZ) * MsfElement.one(INF, 2, QQ)
    assert str(info.value) == "(inf,2,Z) vs (inf,2,Q)"
    with pytest.raises(AmbientMismatch) as info:
        NPoly.one(2, 1, ZZ) + NPoly.one(1, 2, ZZ)
    assert str(info.value) == "(2,1,Z) vs (1,2,Z)"


@pytest.mark.parametrize("x, y, line", [
    (e_alpha([((1, 0), 1)], INF, 2, ZZ), e_alpha([((1, 0), 1)], INF, 2, QQ),
     "error: ambient mismatch: (inf,2,Z) vs (inf,2,Q)\n"),
    (e_alpha([((1, 0), 1)], 2, 2, Zmod(7)), e_alpha([((1,), 1)], INF, 1, Zmod(7)),
     "error: ambient mismatch: (2,2,Zmod:7) vs (inf,1,Zmod:7)\n"),
])
def test_cli_ambient_mismatch_line(tmp_path, x, y, line):
    files = []
    for name, el in (("x.json", x), ("y.json", y)):
        (tmp_path / name).write_text(json.dumps(msf.element_to_json(el)))
        files.append(str(tmp_path / name))
    assert run_main(["product"] + files) == (2, "", line)


# Canonical keys: a public constructor refuses every key that a second
# spelling of the same polynomial could use, and booleans as integers.

@pytest.mark.parametrize("symmono", [
    (((1, (1,)), 1), ((1, (1,)), 1)),      # one symbol twice
    (((2, (1,)), 1), ((1, (1,)), 1)),      # same nu, index order reversed
    (((1, (2,)), 1), ((1, (1,)), 1)),      # nu order reversed
    (((True, (1,)), 1),),                  # boolean index
    (((1, (1,)), True),),                  # boolean exponent
    (((1, (True,)), 1),),                  # boolean monomial exponent
])
def test_genpoly_constructor_rejects_noncanonical_keys(symmono):
    for c in (1, 0):  # a zero coefficient does not excuse its key
        with pytest.raises(ValueError):
            GenPoly(1, ZZ, {symmono: c})


def test_genpoly_spellings_cannot_differ():
    canonical = GenPoly(2, ZZ, {(((1, (0, 1)), 1), ((1, (1, 0)), 1)): 1})
    with pytest.raises(ValueError):
        GenPoly(2, ZZ, {(((1, (1, 0)), 1), ((1, (0, 1)), 1)): 1})
    assert canonical == GenPoly.symbol(1, (1, 0), 2, ZZ) * GenPoly.symbol(1, (0, 1), 2, ZZ)


@pytest.mark.parametrize("pairs", [
    [((1,), True)],                        # boolean multiplicity
    [((True,), 1)],                        # boolean exponent
    [((1,), 1.0)],                         # float multiplicity
])
def test_msf_constructors_reject_booleans(pairs):
    with pytest.raises(ValueError):
        make_alpha(pairs)
    with pytest.raises(ValueError):
        e_alpha(pairs, INF, 1, ZZ)
    with pytest.raises(ValueError):
        MsfElement(INF, 1, ZZ, {tuple(pairs): 1})


@pytest.mark.parametrize("build", [
    lambda: NPoly(1, 1, ZZ, {(1.5,): 1}),
    lambda: NPoly(1, 1, ZZ, {(True,): 1}),
    lambda: NPoly(1, 1, ZZ, {(-1,): 1}),
    lambda: NPoly(True, 1, ZZ),
    lambda: NPoly(1, 2.0, ZZ),
    # the classical e_i, E[i;(1)] in GenPoly(1, ZZ), keep the ids of EPoly
    lambda: GenPoly(1, ZZ, {(((1, (1,)), 1.5),): 1}),
    lambda: GenPoly(1, ZZ, {(((1, (1,)), 1), ((2, (1,)), True)): 1}),
    lambda: GenPoly(1, ZZ, {(((1, (-1,)), 1),): 0}),
    lambda: MsfElement(INF, True, ZZ),
    lambda: MsfElement(2, 1, ZZ, {(((1,), 5),): 0}),  # weight 5 in n = 2
    lambda: GenPoly(True, ZZ),
    lambda: NPoly.variable(True, 1, 1, 2, ZZ),
    lambda: NPoly.variable(1, True, 1, 2, ZZ),
], ids=["NPoly-float-exponent", "NPoly-bool-exponent", "NPoly-negative-exponent",
        "NPoly-bool-n", "NPoly-float-m", "EPoly-float-exponent", "EPoly-bool-exponent",
        "EPoly-zero-term", "Msf-bool-m", "Msf-zero-term", "GenPoly-bool-m",
        "NPoly-variable-bool-i", "NPoly-variable-bool-j"])
def test_constructors_take_integers_only(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build, text, expected", [
    (lambda c: NPoly(1, 2, Zmod(7), {(1, 0): c}), npoly_text, "6*x1(1)"),
    (lambda c: MsfElement(INF, 2, Zmod(7), {(((1, 0), 1),): c}), MsfElement.text,
     "6*e(y1:1)"),
    (lambda c: GenPoly(2, Zmod(7), {(((1, (1, 0)), 1),): c}), GenPoly.text, "6*E[1;(1,0)]"),
], ids=["NPoly", "MsfElement", "GenPoly"])
def test_public_constructors_reduce_mod_p(build, text, expected):
    # -1, 6 and 13 are one residue mod 7, and 7 is zero
    x, y, z, zero = build(-1), build(6), build(13), build(7)
    assert x == y == z
    assert text(x) == text(y) == text(z) == expected
    assert list(x.terms.values()) == [6]
    assert not x.is_zero and (x - y).is_zero
    assert zero.is_zero and zero == build(0) and text(zero) == "0"


A1 = (((1,), 1),)


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(7)], ids=lambda r: r.to_string())
@pytest.mark.parametrize("bad", [True, False, 0.1, 1.5, 2.0, "3", None, 1j],
                         ids=repr)
@pytest.mark.parametrize("build", [
    lambda R, c: NPoly(1, 1, R, {(1,): c}),
    lambda R, c: MsfElement(INF, 1, R, {A1: c}),
    lambda R, c: GenPoly(1, R, {(((1, (1,)), 1),): c}),
    lambda R, c: NPoly.one(1, 1, R).scale(c),
    lambda R, c: MsfElement.one(INF, 1, R).scale(c),
    lambda R, c: GenPoly.one(1, R).scale(c),
], ids=["NPoly", "MsfElement", "GenPoly", "NPoly-scale", "Msf-scale", "GenPoly-scale"])
def test_coefficients_and_scalars_are_ring_elements(build, bad, ring):
    with pytest.raises(ValueError):
        build(ring, bad)


@pytest.mark.parametrize("build", [
    lambda R, c: NPoly(1, 1, R, {(1,): c}),
    lambda R, c: MsfElement(INF, 1, R, {A1: c}),
    lambda R, c: GenPoly(1, R, {(((1, (1,)), 1),): c}),
], ids=["NPoly", "MsfElement", "GenPoly"])
def test_constructors_store_canonical_coefficients(build):
    x = build(QQ, 3)
    assert list(x.terms.values()) == [3] and type(list(x.terms.values())[0]) is Fraction
    assert build(QQ, Fraction(1, 10)) * build(QQ, Fraction(1, 10)) == \
        build(QQ, 1) * build(QQ, Fraction(1, 100))
    with pytest.raises(ValueError):
        build(ZZ, Fraction(1, 2))  # only Q takes fractions
    with pytest.raises(ValueError):
        build(Zmod(5), Fraction(2))
    assert build(Zmod(5), 7) == build(Zmod(5), 2)


@pytest.mark.parametrize("k", [True, False, 1.5, 2.0, -1, "2", None], ids=repr)
def test_powers_are_nonnegative_ints(k):
    x = MsfElement(INF, 1, ZZ, {A1: 2})
    for value in (x, multisym.rewrite(x), NPoly(1, 1, ZZ, {(1,): 2})):
        with pytest.raises(ValueError):
            value ** k
