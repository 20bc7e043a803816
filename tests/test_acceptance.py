"""Acceptance gate: eight criteria, one test and one printed verdict each.

Every check is exact (integer, rational, or prime-field arithmetic); there
are no numeric tolerances anywhere.  Run with `pytest -s -v` to see the
per-criterion PASS/FAIL lines alongside the test outcomes.
"""

import itertools
import random

from conftest import degrees_upto
from multisym.coeffring import QQ, ZZ, Zmod
from multisym.linalg import RankTracker
from multisym.monomial import grlex_key, is_primitive, monomials_up_to
from multisym.msf import INF, MsfElement, alphas_of_multidegree, basis_alphas, e_alpha
from multisym.oracle import count_orbits, monomials_of_multidegree
from multisym.polyring import NPoly
from multisym.reference import (coverage_rank, ek_of_f, expand, free_monomial_count,
                                parse_npoly, product)
from multisym.relations import kernel_basis, verify_relation
from multisym.rewrite import GenPoly, evaluate, plethysm_P, rewrite
from refimpl import epoly_substitute

F2 = Zmod(2)


def _report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"\n[ACCEPTANCE {num}] {name}: {verdict}{tail}", flush=True)
    assert ok, f"acceptance criterion {num} ({name}) failed: {detail}"


def test_1_golden_examples():
    failures = []

    # orbit-sum expansion with two named arguments, three and four slots
    x3 = e_alpha([((1, 0), 2), ((0, 1), 1)], 3, 2, ZZ)
    want3 = parse_npoly(
        "x1(1)*x1(2)*x2(3) + x1(1)*x2(2)*x1(3) + x2(1)*x1(2)*x1(3)",
        3, 2, ZZ)
    if expand(x3) != want3:
        failures.append("3-slot expansion")

    x4 = e_alpha([((1, 0), 2), ((0, 1), 1)], 4, 2, ZZ)
    want4 = parse_npoly(
        "x1(1)*x1(2)*x2(3) + x1(1)*x2(2)*x1(3) + x2(1)*x1(2)*x1(3)"
        " + x1(1)*x1(2)*x2(4) + x1(1)*x2(2)*x1(4) + x2(1)*x1(2)*x1(4)"
        " + x1(1)*x1(3)*x2(4) + x1(1)*x2(3)*x1(4) + x2(1)*x1(3)*x1(4)"
        " + x1(2)*x1(3)*x2(4) + x1(2)*x2(3)*x1(4) + x2(2)*x1(3)*x1(4)",
        4, 2, ZZ)
    if len(want4.terms) != 12 or expand(x4) != want4:
        failures.append("4-slot expansion")

    # two-slot product collapse: e_{(1,1)}(a,b) e_2(c) = e_{(1,1)}(ac,bc)
    a, b, c = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    got = product(e_alpha([(a, 1), (b, 1)], 2, 3, ZZ),
                  e_alpha([(c, 2)], 2, 3, ZZ))
    if got != e_alpha([((1, 0, 1), 1), ((0, 1, 1), 1)], 2, 3, ZZ):
        failures.append("2-slot product")

    # rewrite e_{(2,1)}(a,b) = e_2(a)e_1(b) - e_1(a)e_1(ab) + e_1(a^2 b)
    g = rewrite(e_alpha([((1, 0), 2), ((0, 1), 1)], 3, 2, ZZ))
    s = lambda i, nu: GenPoly.symbol(i, nu, 2, ZZ)
    want = s(2, (1, 0)) * s(1, (0, 1)) - s(1, (1, 0)) * s(1, (1, 1)) \
        + s(1, (2, 1))
    if g != want:
        failures.append("3-slot rewrite")

    _report(1, "golden examples", not failures, ", ".join(failures))


def test_2_homomorphism_suite():
    # expand(product(x, y)) == expand(x) * expand(y) on sampled basis pairs,
    # n <= 4, m <= 3, multidegree total <= 5, over Z and Zmod:2
    pairs = 0
    failures = []
    for ring in (ZZ, F2):
        for n in (1, 2, 3, 4):
            for m in (1, 2, 3):
                pool = []
                for a in degrees_upto(m, 5):
                    pool.extend(basis_alphas(n, m, a))
                rng = random.Random(f"acc2:{ring.to_string()}:{n}:{m}")
                chosen = [(rng.choice(pool), rng.choice(pool))
                          for _ in range(50)]
                chosen.append(((), pool[-1]))        # identity pair
                chosen.append((pool[-1], pool[-1]))  # squared element
                for al, be in chosen:
                    x = e_alpha(al, n, m, ring) if al \
                        else MsfElement.one(n, m, ring)
                    y = e_alpha(be, n, m, ring) if be \
                        else MsfElement.one(n, m, ring)
                    if expand(product(x, y)) != expand(x) * expand(y):
                        failures.append((ring.to_string(), n, m, al, be))
                    pairs += 1
    ok = not failures and pairs >= 500
    _report(2, "homomorphism suite", ok,
            f"{pairs} pairs" + (f", first failure {failures[0]}"
                                if failures else ""))


def test_3_basis_and_rank():
    # basis count matches the orbit oracle, and the expansion matrix has
    # full rank over Q and over F_2, for total <= 5, n <= 4, m <= 3
    failures = []
    cells = 0
    for n in (1, 2, 3, 4):
        for m in (1, 2, 3):
            for a in degrees_upto(m, 5):
                als = basis_alphas(n, m, a)
                if len(als) != count_orbits(n, m, a):
                    failures.append(("count", n, m, a))
                    continue
                cols = {mono: t for t, mono in
                        enumerate(monomials_of_multidegree(n, m, a))}
                for ring in (QQ, F2):
                    tr = RankTracker(len(cols), ring)
                    for al in als:
                        p = e_alpha(al, n, m, ring).expand()
                        row = [ring.zero] * len(cols)
                        for mono, coef in p.terms.items():
                            row[cols[mono]] = coef
                        tr.add(row)
                    if tr.rank != len(als):
                        failures.append(("rank", ring.to_string(), n, m, a))
                cells += 1
    _report(3, "basis count and rank", not failures,
            f"{cells} multidegree cells" + (f", first failure {failures[0]}"
                                            if failures else ""))


def test_4_round_trip():
    # evaluate(rewrite(e_alpha), n) == e_alpha on the criterion-3 corpus,
    # over Z, Q and Zmod:2
    failures = []
    count = 0
    for n in (1, 2, 3, 4):
        for m in (1, 2, 3):
            for a in degrees_upto(m, 5):
                for al in basis_alphas(n, m, a):
                    for ring in (ZZ, QQ, F2):
                        x = e_alpha(al, n, m, ring)
                        if evaluate(rewrite(x), n) != x:
                            failures.append((ring.to_string(), n, m, al))
                        count += 1
    _report(4, "rewrite round trip", not failures,
            f"{count} elements" + (f", first failure {failures[0]}"
                                   if failures else ""))


def test_5_relation_vanishing_and_coverage():
    # every relation for n <= 3, m <= 3, multidegree total <= 6 vanishes at
    # ambient n (checked through both evaluation routes), and the span of
    # the e_{n+k}(f) coefficients reaches the whole kernel over Q
    failures = []
    nrel = 0
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for a in degrees_upto(m, 6):
                for al in kernel_basis(n, m, a):
                    g = rewrite(e_alpha(al, INF, m, ZZ))
                    if g.is_zero or not verify_relation(g, n):
                        failures.append(("vanish", n, m, al))
                    nrel += 1
    ncov = 0
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for a in degrees_upto(m, 6):
                if not any(a):
                    continue
                got, dim = coverage_rank(n, m, a)
                if got != dim:
                    failures.append(("coverage", n, m, a, got, dim))
                ncov += 1
    _report(5, "relation vanishing and coverage", not failures,
            f"{nrel} relations, {ncov} coverage cells"
            + (f", first failure {failures[0]}" if failures else ""))


def test_6_freeness_count():
    # the free polynomial ring on the e_i(nu), nu primitive, has exactly as
    # many monomials in each multidegree as there are basis indices
    failures = []
    cells = 0
    for m in (1, 2, 3):
        for a in degrees_upto(m, 6):
            want = len(alphas_of_multidegree(m, a))
            got = free_monomial_count(m, a)
            if got != want:
                failures.append((m, a, got, want))
            cells += 1
    _report(6, "freeness count", not failures,
            f"{cells} multidegrees" + (f", first failure {failures[0]}"
                                       if failures else ""))


def test_7_powered_alphabet_consistency():
    # expand(e_h(f^k)) at n = hk against plethysm_P(h,k) evaluated at
    # e_j -> expand(e_j(f)), for hk <= 6 and random integer f
    rng = random.Random("acc7")
    failures = []
    checked = 0
    m = 2
    pairs = sorted((h, k) for h in range(1, 7) for k in range(1, 7)
                   if h * k <= 6)
    for h, k in pairs:
        n = h * k
        for _ in range(2):
            f = NPoly.zero(1, m, ZZ)
            for _ in range(3):  # at most three monomials
                mu = (rng.randint(0, 2), rng.randint(0, 2))
                if not any(mu):
                    continue
                f = f + NPoly.monomial(
                    mu, 1, m, ZZ, ZZ.embed(rng.choice([-2, -1, 1, 2, 3])))
            if f.is_zero:
                f = NPoly.variable(1, 1, 1, m, ZZ)
            lhs = expand(ek_of_f(f ** k, h, n))
            ecache = {}

            def ev(j):
                if j not in ecache:
                    ecache[j] = expand(ek_of_f(f, j, n))
                return ecache[j]

            rhs = epoly_substitute(plethysm_P(h, k), ev,
                                   NPoly.one(n, m, ZZ),
                                   lambda c, p: p.scale(ZZ.embed(c)))
            if lhs != rhs:
                failures.append((h, k))
            checked += 1
    _report(7, "powered-alphabet consistency", not failures,
            f"{checked} cases" + (f", first failure {failures[0]}"
                                  if failures else ""))


def _degree_bounded_generators(n, m, max_deg):
    gens = []
    for nu in monomials_up_to(m, (max_deg,) * m):
        if sum(nu) > max_deg or not is_primitive(nu):
            continue
        i = 1
        while i <= n and i * sum(nu) <= max_deg:
            gens.append((i, nu))
            i += 1
    gens.sort(key=lambda s: (grlex_key(s[1]), s[0]))
    return gens


def _generator_multisets(gens, a, m):
    def rec(idx, remaining, acc):
        if not any(remaining):
            yield tuple(acc)
            return
        if idx == len(gens):
            return
        yield from rec(idx + 1, remaining, acc)
        i, nu = gens[idx]
        d = tuple(i * e for e in nu)
        rem, reps = remaining, 0
        while all(rem[t] >= d[t] for t in range(m)):
            rem = tuple(rem[t] - d[t] for t in range(m))
            reps += 1
            yield from rec(idx + 1, rem, acc + [(i, nu)] * reps)
    return rec(0, tuple(a), [])


def _spans_every_component(n, m, ring, max_deg, max_total):
    """Check products of bounded generators against the orbit count.

    Returns the list of multidegrees where the span falls short.
    """
    gens = _degree_bounded_generators(n, m, max_deg)
    deficient = []
    for a in degrees_upto(m, max_total):
        if not any(a):
            continue
        dim = count_orbits(n, m, a)
        cols = {mono: t for t, mono in
                enumerate(monomials_of_multidegree(n, m, a))}
        tr = RankTracker(len(cols), ring)
        for ms in _generator_multisets(gens, a, m):
            el = MsfElement.one(n, m, ring)
            for i, nu in ms:
                el = product(el, e_alpha([(nu, i)], n, m, ring))
            p = el.expand()
            row = [ring.zero] * len(cols)
            for mono, coef in p.terms.items():
                row[cols[mono]] = coef
            tr.add(row)
            if tr.rank == dim:
                break
        if tr.rank != dim:
            deficient.append((a, tr.rank, dim))
    return deficient


def test_8_degree_bound_spot_check():
    # generators of total degree <= n(m-1) span every component with total
    # <= n(m-1)+2; rank over Q stands in for the integer statement and F_2
    # covers the modular one
    failures = []
    for n, m in [(2, 2), (2, 3), (3, 2)]:
        bound = n * (m - 1)
        for ring in (QQ, F2):
            bad = _spans_every_component(n, m, ring, bound, bound + 2)
            if bad:
                failures.append((n, m, ring.to_string(), bad[0]))
    # sharpness clause: recorded, not gated
    notes = []
    for n, m in [(2, 2), (2, 3)]:
        bound = n * (m - 1)
        bad = _spans_every_component(n, m, F2, bound - 1, bound + 2)
        state = (f"observed (degree <= {bound - 1} fails first at "
                 f"multidegree {bad[0][0]})") if bad else \
            f"not observed up to total {bound + 2}"
        notes.append(f"sharpness at (n,m,p)=({n},{m},2): {state}")
    for note in notes:
        print(f"\n[ACCEPTANCE 8] {note}", flush=True)
    _report(8, "degree bound spot check", not failures,
            f"first failure {failures[0]}" if failures else "")
