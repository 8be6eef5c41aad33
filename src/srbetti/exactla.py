"""Exact rank computation over prime fields and over the rationals.

One elimination over the integers serves every field: it gives the rank
over Q and the invariant factors, and the rank over GF(p) is the rank over
Q less the factors divisible by p.  Everything is integer arithmetic; there
is no floating point.  Matrices are expected to be small and sparse
(boundary matrices with +-1 entries), so elimination keeps rows as dicts
and picks pivots in the sparsest column.  Where no +-1 pivot is left it
takes Smith normal form steps, as Dumas, Heckenbach, Saunders and Welker
(2003) do for simplicial homology.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from math import isqrt

_PRIME_LIMIT = 1 << 31


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    for q in range(3, isqrt(p) + 1, 2):
        if p % q == 0:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: GF(p) for a prime p < 2^31, or the rationals (p=None)."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            if not isinstance(self.p, int) or self.p >= _PRIME_LIMIT or not _is_prime(self.p):
                raise ValueError(f"field characteristic must be a prime below 2^31, got {self.p!r}")

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls(p)

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(None)

    @property
    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    def __str__(self) -> str:
        return "Q" if self.p is None else f"GF({self.p})"


GF_DEFAULT = FieldSpec(32003)
QQ = FieldSpec(None)


def rank(rows: list[dict[int, int]], field: FieldSpec = GF_DEFAULT) -> int:
    """Rank over the field of an integer matrix given as sparse rows, which
    are consumed: the rank over Q less, over GF(p), the invariant factors
    divisible by p."""
    rnk, factors = integral_rank(rows)
    if field.p is None:
        return rnk
    return rnk - sum(1 for t in factors if t % field.p == 0)


def integral_rank(rows: list[dict[int, int]]) -> tuple[int, tuple[int, ...]]:
    """Rank over Q and the invariant factors > 1, ascending, of an integer
    matrix given as sparse rows (column -> nonzero entry); the rows are
    consumed.

    One elimination by unimodular steps, so no fraction appears.  It pivots
    on an entry +-1 where it can: in the sparsest column that has one, on
    its shortest row.  Clearing that column also clears the pivot row, so
    the step holds over every field at once.  Only when no unit entry is
    left does it pivot on an entry of least absolute value, a Smith step.
    """
    rnk = 0
    factors = []
    active = [r for r in rows if r]
    while active:
        counts = Counter(chain.from_iterable(active))
        pivot_col = min(counts, key=counts.get)
        best = _unit_row(active, pivot_col)
        if best is None:  # rare: the sparsest column has no unit entry
            units = {c for r in active for c, v in r.items() if v == 1 or v == -1}
            if units:
                pivot_col = min(units, key=counts.get)
                best = _unit_row(active, pivot_col)
            else:
                best, pivot_col = min(
                    ((i, c) for i, r in enumerate(active) for c in r), key=lambda ic: abs(active[ic[0]][ic[1]])
                )
        piv = active.pop(best)
        a = piv[pivot_col]
        nxt = []
        for r in active:
            if pivot_col in r:
                q = r[pivot_col] // a  # exact when a is +-1
                for c, v in piv.items():
                    nv = r.get(c, 0) - q * v
                    if nv:
                        r[c] = nv
                    else:
                        del r[c]
                if not r:
                    continue
            nxt.append(r)
        active = nxt
        if a != 1 and a != -1:
            # A Smith step ends when a is alone in its row and column and
            # divides every entry left, so the factors come out ascending,
            # each dividing the next.  Until then the pivot row goes back
            # with an entry smaller than |a|: a remainder in the column, else
            # the row reduced modulo a by column operations, else that row
            # plus the first row with an entry a does not divide.
            if any(pivot_col in r for r in active):
                active.append(piv)
                continue
            for r in (piv, *active):
                rest = {c: v % a for c, v in r.items() if v % a}
                if rest:
                    rest[pivot_col] = a
                    active.append(rest)
                    break
            if rest:
                continue
            factors.append(abs(a))
        rnk += 1
    return rnk, tuple(factors)


def _unit_row(rows: list[dict[int, int]], col: int) -> int | None:
    """Index of the shortest row with a +-1 entry in col, if any."""
    best = None
    for idx, r in enumerate(rows):
        v = r.get(col)
        if (v == 1 or v == -1) and (best is None or len(r) < shortest):
            best, shortest = idx, len(r)
    return best
