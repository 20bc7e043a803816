"""Small exact linear algebra over a field.

Only what the rank certificates need: incremental row reduction over Q or a
prime field, and the rank over Q of integer rows, taken modulo a prime
first (rank_over_q).  Rows are sparse, maps {column: value}; a dense
sequence is read as the map of its positions.  Values are ring elements or
integers, settled into the ring on entry (Ring.settle), so zeros are never
stored.  The ring must support division.
"""

from __future__ import annotations

from .coeffring import QQ, Ring, Zmod

__all__ = ["RankTracker", "rank_of", "rank_over_q"]

CERT_FIELD = Zmod(1000003)  # where rank_over_q ranks first


class RankTracker:
    """Feed rows one at a time; keeps a sparse reduced row per pivot column.

    Each pivot row is normalized to 1 at its pivot column, its lowest
    column.
    """

    def __init__(self, ncols: int, ring: Ring):
        if not ring.has_division:
            raise ValueError("rank computation needs a field")
        self.ncols = ncols
        self.ring = ring
        self.pivots: dict[int, dict] = {}  # pivot column -> normalized row

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row) -> bool:
        """Reduce a row against the current space; True if it was new.

        Only the nonzero entries are reduced, lowest column first.
        """
        R = self.ring
        if not isinstance(row, dict):
            if len(row) != self.ncols:
                raise ValueError("row length mismatch")
            row = dict(enumerate(row))
        row = R.settle(row, 1)
        if row and not 0 <= min(row) <= max(row) < self.ncols:
            raise ValueError("row column out of range")
        sub, mul, zero = R.sub, R.mul, R.zero
        get, pop = row.get, row.pop
        pivots = self.pivots
        while row:
            col = min(row)
            prow = pivots.get(col)
            if prow is None:
                inv = R.inv(row[col])
                pivots[col] = {t: mul(inv, v) for t, v in row.items()}
                return True
            c = row[col]
            for t, v in prow.items():
                r = sub(get(t, zero), mul(c, v))
                if R.is_zero(r):
                    pop(t, None)
                else:
                    row[t] = r
        return False


def rank_of(rows, ncols: int, ring: Ring) -> int:
    """The rank of the rows over the field; no row is read once it is ncols."""
    tr = RankTracker(ncols, ring)
    for row in rows:
        if tr.rank == ncols:
            break
        tr.add(row)
    return tr.rank


def rank_over_q(rows: list, ncols: int) -> int:
    """The rank of integer rows over Q.  The rank modulo a prime is at most
    that, so it is the answer when full, min(len(rows), ncols); only a rank
    that falls short there is computed again over Q."""
    rank = rank_of(rows, ncols, CERT_FIELD)
    if rank < min(len(rows), ncols):
        rank = rank_of(rows, ncols, QQ)
    return rank
