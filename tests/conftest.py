"""Shared helpers: deterministic pseudo-random elements, degree boxes, the
command line run in process, and the earlier index enumeration, the
earlier power-sum plethysm and its e_1 image as references.  The
references more than one test module compares against are in refimpl."""

import contextlib
import io
import itertools
import random
from fractions import Fraction
from functools import cache

from multisym.cli import main
from multisym.coeffring import QQ, ZZ, Ring
from multisym.monomial import mono_pow, monomials_up_to
from multisym.msf import INF, MsfElement, alpha_weight, alphas_of_multidegree
from multisym.rewrite import GenPoly, newton_p
# run every lazily loaded module now, so none first runs while a test patches a name it imports
from multisym.linalg import RankTracker
from multisym.oracle import orbit_sum
from multisym.relations import genpoly_expand


def seeded(tag: str) -> random.Random:
    return random.Random(tag)


def degrees_upto(m: int, total: int) -> list:
    """Multidegrees in N^m of total at most `total`, graded-lex order."""
    out = [a for a in itertools.product(range(total + 1), repeat=m)
           if sum(a) <= total]
    out.sort(key=lambda a: (sum(a), a))
    return out


def alpha_pool(n, m: int, max_total: int) -> list:
    """Every basis index of multidegree total <= max_total (weight <= n)."""
    cap = None if n is INF else n
    pool = []
    for a in degrees_upto(m, max_total):
        pool.extend(alphas_of_multidegree(m, a, cap))
    return pool


def random_coeff(rng: random.Random, ring: Ring):
    while True:
        c = ring.embed(rng.randint(-3, 3))
        if not ring.is_zero(c):
            return c


def random_element(rng: random.Random, n, m: int, ring: Ring,
                   max_total: int, max_terms: int = 3) -> MsfElement:
    pool = alpha_pool(n, m, max_total)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.choice(pool)] = random_coeff(rng, ring)
    return MsfElement(n, m, ring, terms)


def eval_at(p, values):
    """The polynomial p at an integer point: values[k] replaces the variable
    at flat index k."""
    R = p.ring
    acc = R.zero
    for mono, c in p.terms.items():
        v = 1
        for base, e in zip(values, mono):
            v *= base ** e
        acc = R.add(acc, R.mul(c, R.embed(v)))
    return acc


def run_main(argv) -> tuple:
    """cli.main(argv) in process: (exit code, stdout, stderr), with a usage
    error's SystemExit taken as its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# ---- the earlier index enumeration: a recursion through every monomial
# mu <= a, multiplicity zero included; the reference of test_enumeration

def ref_alphas(m: int, a: tuple, max_weight=None) -> tuple:
    """The indices of multidegree a and weight <= max_weight (None: any),
    sorted by weight, then by their parts' (deg mu, mu, mult), a prefix first."""
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
    found.sort(key=lambda alpha: [(sum(mu), mu, mult) for mu, mult in alpha])
    found.sort(key=alpha_weight)
    return tuple(found)


# ---- the earlier plethysm: e_h as a rational sum of power-sum products,
# each product multiplied out in the e_i; the reference of test_symfun

@cache
def ref_e_in_powersums(h: int) -> dict:
    """e_h as a rational combination of power-sum products: partitions
    (descending tuples of the p-indices) to Fractions, from
    h * e_h = sum_{i=1..h} (-1)^{i-1} p_i e_{h-i}."""
    if h == 0:
        return {(): Fraction(1)}
    out = {}
    for i in range(1, h + 1):
        sign = 1 if i % 2 == 1 else -1
        for part, c in ref_e_in_powersums(h - i).items():
            key = tuple(sorted(part + (i,), reverse=True))
            out[key] = out.get(key, Fraction(0)) + sign * c / h
    return {k: c for k, c in out.items() if c}


def ref_plethysm_P(h: int, k: int) -> GenPoly:
    """P_{h,k} through the power sums: ref_e_in_powersums(h) with
    p_r -> p_{rk}, each written in the e_i by newton_p; the rational sum,
    kept as integer numerators over one denominator, must be integral."""
    prods = {(): GenPoly.one(1, ZZ)}

    def prod(part):  # prod newton_p(r*k) over part, sharing prefixes
        if part not in prods:
            prods[part] = prod(part[:-1]) * newton_p(part[-1] * k)
        return prods[part]

    cs, den = QQ.lift(ref_e_in_powersums(h))
    out = {}
    for part, c in cs.items():
        for symmono, v in prod(part).terms.items():
            out[symmono] = out.get(symmono, 0) + c * v
    assert not any(v % den for v in out.values())
    return GenPoly(1, ZZ, {symmono: v // den for symmono, v in out.items()})


def ref_e1_image(i: int, nu, m: int, R: Ring) -> GenPoly:
    """e_i in the E[1;nu^r]: ref_e_in_powersums(i) with p_r -> E[1;nu^r],
    each Fraction embedded as numerator times the inverse of its
    denominator (ZeroDivisionError over Z/p with p <= i)."""
    terms = {}
    for part, c in ref_e_in_powersums(i).items():
        # part descends, and E[1;nu^r] ascends with r in the symbol order
        symmono = tuple([((1, mono_pow(nu, r)), part.count(r)) for r in sorted(set(part))])
        v = R.mul(R.embed(c.numerator), R.inv(R.embed(c.denominator)))
        if not R.is_zero(v):
            terms[symmono] = v
    return GenPoly(m, R, terms)
