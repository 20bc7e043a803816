"""verify's basis rank on packed column keys, and the cached orbit
representatives of the oracle.

The rank columns are keyed by packed monomials and each expansion is read
at that width, so no key is decoded; the verdicts must equal those of the
tuple-keyed reference below at every desk scale and in every ring.
"""

import pytest

from multisym import cli, oracle
from multisym.coeffring import QQ, ZZ, Zmod
from multisym.linalg import RankTracker
from multisym.monomial import monomials_of_total_degree
from multisym.msf import MsfElement, basis_alphas

RINGS = [ZZ, QQ, Zmod(2), Zmod(7), Zmod(1000003)]


def reference_basis_rank(n, m, deg, ring):
    """(checked, failures) with columns keyed by exponent tuples."""
    fields = (ring,) if ring.kind == "Zp" else (Zmod(1000003), QQ)
    checked = failures = 0
    for total in range(deg + 1):
        for a in monomials_of_total_degree(m, total):
            alphas = basis_alphas(n, m, a)
            checked += 1
            monos = oracle.monomials_of_multidegree(n, m, a)
            if len(alphas) != len({tuple(sorted(oracle._blocks(x, n, m))) for x in monos}):
                failures += 1
                continue
            cols = {mono: i for i, mono in enumerate(monos)}
            rows = [{cols[mono]: c for mono, c in
                     MsfElement(n, m, ZZ, {alpha: ZZ.one}).expand().terms.items()}
                    for alpha in alphas]
            ranks = []
            for field in fields:
                tracker = RankTracker(len(cols), field)
                for row in rows:
                    tracker.add(row)
                ranks.append(tracker.rank)
            if len(rows) not in ranks:
                failures += 1
    return checked, failures


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.to_string())
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_basis_rank_matches_tuple_keyed_reference(n, m, ring):
    for deg in range(5):
        got = cli._verify_basis_rank(n, m, deg, ring)
        assert got == reference_basis_rank(n, m, deg, ring)
        # distinct orbit sums have disjoint supports: full rank in any field
        assert got[1] == 0


def test_a_repeated_basis_symbol_is_a_failure(monkeypatch):
    # as many symbols as orbits, but one twice: the count passes, the rank
    # falls one short wherever a multidegree has two or more orbits
    def doubled(n, m, a):
        alphas = basis_alphas(n, m, a)
        return alphas[:-1] + alphas[:1] if len(alphas) > 1 else alphas

    monkeypatch.setattr(cli, "basis_alphas", doubled)
    for ring in RINGS:
        checked, failures = cli._verify_basis_rank(3, 2, 3, ring)
        short = sum(len(basis_alphas(3, 2, a)) > 1
                    for t in range(4) for a in monomials_of_total_degree(2, t))
        assert (checked, failures) == (10, short) and short > 0


def test_orbit_representatives_are_cached_tuples():
    oracle._orbit_reps_cached.cache_clear()
    got = oracle._orbit_reps(2, 2, (2, 1))
    assert isinstance(got, tuple) and len(got) == 3
    assert oracle._orbit_reps(2, 2, [2, 1]) is got
    assert oracle._orbit_reps_cached.cache_info().currsize == 1
    for bad in ((2,), [2, 1, 0], ()):
        with pytest.raises(ValueError):
            oracle._orbit_reps(2, 2, bad)
        with pytest.raises(ValueError):
            oracle.count_orbits(2, 2, bad)
    assert oracle._orbit_reps_cached.cache_info().currsize == 1
    assert oracle.count_orbits(2, 2, (2, 1)) == 3
    assert len(oracle.invariant_basis(2, 2, [2, 1], ZZ)) == 3
    assert oracle._orbit_reps_cached.cache_info().currsize == 1
