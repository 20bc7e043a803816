"""NPoly's packed integer keys against a naive tuple-key reference.

The reference below keeps terms in a plain dict keyed by flat exponent
tuples and multiplies by adding tuples componentwise, the representation
NPoly used before its keys were packed into integers.
"""

import itertools
import random

import pytest

from multisym.coeffring import QQ, ZZ, Zmod
from multisym.polyring import (BASE_WIDTH, NPoly, npoly_sum, npoly_text,
                               parse_npoly, sn_act)

RINGS = (ZZ, QQ, Zmod(5))


# naive reference: dicts keyed by exponent tuples

def ref_clean(ring, d):
    return {k: c for k, c in d.items() if not ring.is_zero(c)}


def ref_add(ring, a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = ring.add(out.get(k, ring.zero), c)
    return ref_clean(ring, out)


def ref_neg(ring, a):
    return {k: ring.neg(c) for k, c in a.items()}


def ref_mul(ring, a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = ring.add(out.get(k, ring.zero), ring.mul(ca, cb))
    return ref_clean(ring, out)


def ref_pow(ring, a, k, size):
    acc = {(0,) * size: ring.one}
    for _ in range(k):
        acc = ref_mul(ring, acc, a)
    return acc


def ref_sn_act(sigma, a, m):
    out = {}
    for mono, c in a.items():
        blocks = [mono[j * m:(j + 1) * m] for j in range(len(sigma))]
        moved = [None] * len(sigma)
        for j, b in enumerate(blocks):
            moved[sigma[j] - 1] = b
        out[tuple(itertools.chain(*moved))] = c
    return out


# exponents just below and above the guard bits of 8- and 16-bit fields
BANDS = ((), (63, 64, 100, 127), (128, 200, 16383), (16384, 40000))


def random_terms(rng, size, ring, band):
    """A few random terms, some exponents drawn from the band."""
    pool = [0, 0, 1, 2, 3] + list(band)
    out = {}
    for _ in range(rng.randint(0, 5)):
        mono = tuple(rng.choice(pool) for _ in range(size))
        out[mono] = ring.add(out.get(mono, ring.zero),
                             ring.embed(rng.choice([-3, -2, -1, 1, 2, 4, 5])))
    return ref_clean(ring, out)


def cases(tag, count=40):
    rng = random.Random(tag)
    for t in range(count):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        ring = RINGS[t % len(RINGS)]
        band = BANDS[t % len(BANDS)]
        a = random_terms(rng, n * m, ring, band)
        b = random_terms(rng, n * m, ring, band)
        yield n, m, ring, a, b


def as_dict(p):
    return dict(p.terms.items())


def test_arithmetic_matches_reference():
    for n, m, ring, a, b in cases("packed-arith"):
        pa, pb = NPoly(n, m, ring, a), NPoly(n, m, ring, b)
        assert as_dict(pa) == a and as_dict(pb) == b
        assert as_dict(pa + pb) == ref_add(ring, a, b)
        assert as_dict(pa - pb) == ref_add(ring, a, ref_neg(ring, b))
        assert as_dict(-pa) == ref_neg(ring, a)
        assert as_dict(pa * pb) == ref_mul(ring, a, b)
        assert as_dict(pb * pa) == ref_mul(ring, a, b)
        assert (pa * pb == NPoly(n, m, ring, ref_mul(ring, a, b)))
        assert (pa + pb == pb + pa)
        assert (pa == pb) == (a == b)
        assert (pa - pa).is_zero


def test_powers_match_reference():
    for n, m, ring, a, _ in cases("packed-pow", 24):
        pa = NPoly(n, m, ring, a)
        for k in range(4):
            assert as_dict(pa ** k) == ref_pow(ring, a, k, n * m)
    with pytest.raises(ValueError):
        NPoly.one(1, 1, ZZ) ** -1


def test_linear_combination_matches_reference():
    for n, m, ring, a, b in cases("packed-sum", 24):
        ca, cb = ring.embed(3), ring.embed(-2)
        want = ref_add(ring, ref_mul(ring, {(0,) * (n * m): ca}, a),
                       ref_mul(ring, {(0,) * (n * m): cb}, b))
        got = npoly_sum([(ca, NPoly(n, m, ring, a)), (cb, NPoly(n, m, ring, b))],
                        n, m, ring)
        assert as_dict(got) == want
    with pytest.raises(ValueError):
        npoly_sum([(1, NPoly.one(2, 1, ZZ))], 1, 2, ZZ)


def test_widening_square_keeps_every_exponent():
    p = parse_npoly("x1(1)^40000", 1, 1, ZZ)
    sq = p * p
    assert npoly_text(sq) == "x1(1)^80000"
    assert dict(sq.terms) == {(80000,): 1}
    assert sq == NPoly.monomial((80000,), 1, 1, ZZ)
    assert p ** 3 == NPoly.monomial((120000,), 1, 1, ZZ)


def test_product_reaching_the_guard_bit_widens():
    # exponent 100 fits below the guard bit of an 8-bit field; 200 does not
    x = NPoly.monomial((100, 1), 1, 2, ZZ)
    assert x._w == BASE_WIDTH
    sq = x * x
    assert sq._w == 2 * BASE_WIDTH
    assert dict(sq.terms) == {(200, 2): 1}
    # a further product keeps exact exponents at the wider width
    assert dict((sq * x).terms) == {(300, 3): 1}


def test_mixed_widths_compare_and_add():
    n, m, ring = 2, 2, ZZ
    big = NPoly.monomial((0, 0, 0, 200), n, m, ring)
    small = NPoly.variable(1, 1, n, m, ring)
    wide = (big + small) - big  # equals small but carries the wider field
    assert wide._w > small._w
    assert wide == small and small == wide
    assert not (wide != small)
    assert wide + small == small.scale(2)
    assert small + wide == small.scale(2)
    assert wide * small == small * small
    assert wide - small == NPoly.zero(n, m, ring)
    assert npoly_text(wide) == npoly_text(small) == "x1(1)"
    assert npoly_sum([(1, wide), (1, small), (-1, big)], n, m, ring) \
        == small.scale(2) - big


def test_terms_view_speaks_tuples():
    ring = QQ
    p = parse_npoly("3*x1(1)^200*x2(2) - x2(1)^3 + 5", 2, 2, ring)
    want = {(200, 0, 0, 1): ring.embed(3), (0, 3, 0, 0): ring.embed(-1),
            (0, 0, 0, 0): ring.embed(5)}
    assert len(p.terms) == 3
    assert set(p.terms) == set(want)
    assert all(type(k) is tuple for k in p.terms)
    assert dict(p.terms.items()) == want
    assert p.terms == want
    assert sorted(p.terms.values()) == sorted(want.values())
    assert p.terms[(0, 3, 0, 0)] == -1
    assert (0, 3, 0, 0) in p.terms
    for absent in [(0, 2, 0, 0), (0, 0, 0), (-1, 0, 0, 0), (1 << 40, 0, 0, 0),
                   ("a", 0, 0, 0), (0.5, 0, 0, 0), 7]:
        assert absent not in p.terms
        assert p.terms.get(absent) is None
    with pytest.raises(KeyError):
        p.terms[(1, 1, 1, 1)]
    with pytest.raises(TypeError):
        p.terms[(0, 0, 0, 0)] = 1
    assert len(NPoly.zero(3, 3, ring).terms) == 0


def test_terms_view_refuses_boolean_keys():
    """A boolean exponent is no key, though True == 1 and hash(True) == 1."""
    q = NPoly(1, 1, ZZ, {(1,): 5})
    assert q.terms[(1,)] == 5
    assert (True,) not in q.terms and q.terms.get((True,)) is None
    with pytest.raises(KeyError):
        q.terms[(True,)]


def test_sn_act_and_text_unchanged():
    q = parse_npoly("3*x1(1)^200*x2(2) - x2(1)^3 + 5", 2, 2, ZZ)
    assert npoly_text(q * q) == (
        "25 - 10*x2(1)^3 + x2(1)^6 + 30*x1(1)^200*x2(2)"
        " - 6*x1(1)^200*x2(1)^3*x2(2) + 9*x1(1)^400*x2(2)^2")
    assert npoly_text(sn_act((2, 1), q * q)) == (
        "25 - 10*x2(2)^3 + x2(2)^6 + 30*x2(1)*x1(2)^200"
        " - 6*x2(1)*x1(2)^200*x2(2)^3 + 9*x2(1)^2*x1(2)^400")
    r = parse_npoly("x1(1)*x3(2)^2 - 2*x2(3) + x3(1)", 3, 3, Zmod(5))
    assert npoly_text(sn_act((3, 1, 2), r ** 2)) == (
        "x3(3)^2 + x2(2)*x3(3) + 4*x2(2)^2 + 2*x3(1)^2*x1(3)*x3(3)"
        " + x3(1)^2*x2(2)*x1(3) + x3(1)^4*x1(3)^2")
    for n, m, ring, a, _ in cases("packed-act", 24):
        p = NPoly(n, m, ring, a)
        for sigma in itertools.islice(itertools.permutations(range(1, n + 1)), 6):
            assert as_dict(sn_act(sigma, p)) == ref_sn_act(sigma, a, m)
        assert parse_npoly(npoly_text(p), n, m, ring) == p
