"""The sparse RankTracker against a dense elimination kept here.

RankTracker.add reduces a row, given as a map {column: value} or as a
dense sequence, on its nonzero entries only.  The reference below is a
plain dense Gaussian elimination with the Ring's own operations; for
every row fed in order, both must agree on whether it enlarged the span,
and so on the rank.
"""

import random

import pytest

from multisym.coeffring import QQ, ZZ, Zmod
from multisym.linalg import RankTracker, rank_of, rank_over_q

FIELDS = [QQ, Zmod(2), Zmod(1000003)]


class DenseReference:
    """Row echelon form on dense lists, one pivot row per pivot column."""

    def __init__(self, ncols, ring):
        self.ncols, self.ring, self.pivots = ncols, ring, {}

    def add(self, row) -> bool:
        R = self.ring
        row = [R.embed(v) for v in row]
        for col in sorted(self.pivots):
            c = row[col]
            if not R.is_zero(c):
                prow = self.pivots[col]
                row = [R.sub(x, R.mul(c, y)) for x, y in zip(row, prow)]
        for col, c in enumerate(row):
            if not R.is_zero(c):
                inv = R.inv(c)
                self.pivots[col] = [R.mul(inv, v) for v in row]
                return True
        return False


def random_rows(rng, nrows, ncols) -> list:
    """Integer rows, mostly sparse, with zero rows, repeated rows and
    combinations of earlier rows mixed in."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1 or not rows:
            row = [0] * ncols
        elif kind < 0.2:
            row = list(rng.choice(rows))
        elif kind < 0.45:
            picks = rng.sample(rows, min(len(rows), rng.randint(1, 3)))
            coeffs = [rng.randint(-3, 3) for _ in picks]
            row = [sum(c * r[t] for c, r in zip(coeffs, picks)) for t in range(ncols)]
        else:
            row = [0] * ncols
            for t in rng.sample(range(ncols), rng.randint(1, ncols)):
                row[t] = rng.randint(-5, 5)
        if kind >= 0.1:
            row[rng.randrange(ncols)] += 1000003 * rng.randint(0, 1)  # 0 mod the big prime
        rows.append(row)
    return rows


@pytest.mark.parametrize("field", FIELDS, ids=lambda r: r.to_string())
@pytest.mark.parametrize("seed", range(12))
def test_sparse_rows_match_dense_elimination(field, seed):
    rng = random.Random(f"linalg:{field.to_string()}:{seed}")
    ncols = rng.randint(1, 12)
    rows = random_rows(rng, rng.randint(1, 2 * ncols + 3), ncols)
    dense, as_list, as_map = (DenseReference(ncols, field), RankTracker(ncols, field),
                              RankTracker(ncols, field))
    for row in rows:
        expected = dense.add(row)
        assert as_list.add([field.embed(v) for v in row]) is expected
        assert as_map.add({t: v for t, v in enumerate(row) if v}) is expected
    assert as_list.rank == as_map.rank == len(dense.pivots)
    assert as_list.pivots.keys() == dense.pivots.keys()
    assert rank_of(iter(rows), ncols, field) == len(dense.pivots)


@pytest.mark.parametrize("seed", range(12))
def test_rank_over_q_matches_dense_elimination(seed):
    # rows with entries divisible by the big prime rank short modulo it
    rng = random.Random(f"linalg:Q:{seed}")
    ncols = rng.randint(1, 12)
    rows = random_rows(rng, rng.randint(1, 2 * ncols + 3), ncols)
    dense = DenseReference(ncols, QQ)
    for row in rows:
        dense.add(row)
    assert rank_over_q(rows, ncols) == len(dense.pivots)


def test_rank_reads_no_row_once_full():
    assert rank_of([{0: 1}, {5: 1}], 1, QQ) == 1  # {5: 1} is out of range
    with pytest.raises(ValueError):
        rank_of([{}, {5: 1}], 1, QQ)


@pytest.mark.parametrize("field", FIELDS, ids=lambda r: r.to_string())
def test_forced_dependencies(field):
    rows = [[1, 2, 0, 3], [0, 0, 0, 0], [1, 2, 0, 3], [2, 4, 0, 6],
            [0, 1, 1, 0], [1, 3, 1, 3], [0, 0, 0, 5]]
    tracker = RankTracker(4, field)
    got = [tracker.add({t: v for t, v in enumerate(row)}) for row in rows]
    assert got == [True, False, False, False, True, False, True]
    assert tracker.rank == 3
    # every stored row is normalized at its pivot, its lowest column
    for col, prow in tracker.pivots.items():
        assert min(prow) == col and prow[col] == field.one
        assert all(not field.is_zero(v) for v in prow.values())


def test_bad_rows_and_rings_are_refused():
    tracker = RankTracker(3, QQ)
    with pytest.raises(ValueError):
        tracker.add([1, 2])
    with pytest.raises(ValueError):
        tracker.add({3: 1})
    with pytest.raises(ValueError):
        tracker.add({-1: 1})
    assert tracker.add({}) is False and tracker.rank == 0
    with pytest.raises(ValueError):
        RankTracker(3, ZZ)
