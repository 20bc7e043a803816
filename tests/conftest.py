"""Shared helpers: deterministic pseudo-random elements, degree boxes and
the command line run in process."""

import contextlib
import io
import itertools
import random

from multisym.cli import main
from multisym.coeffring import Ring
from multisym.msf import INF, MsfElement, alphas_of_multidegree


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
