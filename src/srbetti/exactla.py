"""Exact rank computation over prime fields and over the rationals.

Everything is integer or Fraction arithmetic; there is no floating point.
Matrices are expected to be small and sparse (boundary matrices with +-1
entries), so elimination keeps rows as dicts and picks pivots in the
sparsest column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


@dataclass(frozen=True)
class SparseMatrix:
    """Integer matrix as (row, col, value) triples; at most one entry per cell.

    Zero values are dropped and entries are stored sorted, so equal matrices
    compare equal regardless of construction order.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        seen = set()
        for r, c, v in self.entries:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"entry ({r}, {c}) outside {self.rows}x{self.cols}")
            if (r, c) in seen:
                raise ValueError(f"duplicate entry at ({r}, {c})")
            seen.add((r, c))
        norm = tuple(sorted((r, c, v) for r, c, v in self.entries if v != 0))
        object.__setattr__(self, "entries", norm)

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.cols, self.rows, tuple((c, r, v) for r, c, v in self.entries))

    def to_dense(self) -> list[list[int]]:
        dense = [[0] * self.cols for _ in range(self.rows)]
        for r, c, v in self.entries:
            dense[r][c] = v
        return dense


def rank(m: SparseMatrix, field: FieldSpec = GF_DEFAULT) -> int:
    """Rank of m over the field (entries reduced mod p for prime fields)."""
    p = field.p
    rowmap: dict[int, dict[int, object]] = {}
    for r, c, v in m.entries:
        val = v % p if p is not None else Fraction(v)
        if val:
            rowmap.setdefault(r, {})[c] = val
    rows = [d for d in rowmap.values() if d]
    return _eliminate(rows, p)


def _eliminate(rows: list[dict], p: int | None) -> int:
    """Sparse Gaussian elimination; each step pivots in the sparsest column,
    on its shortest row.  The only field-specific step is reducing mod p."""
    rnk = 0
    active = rows
    while active:
        counts: dict[int, int] = {}
        for r in active:
            for c in r:
                counts[c] = counts.get(c, 0) + 1
        pivot_col = min(counts, key=lambda c: (counts[c], c))
        best = None
        for idx, r in enumerate(active):
            if pivot_col in r and (best is None or len(r) < len(active[best])):
                best = idx
        piv = active.pop(best)
        rnk += 1
        inv = pow(piv[pivot_col], -1, p) if p is not None else 1 / piv[pivot_col]
        nxt = []
        for r in active:
            if pivot_col in r:
                factor = r[pivot_col] * inv
                for c, v in piv.items():
                    nv = r.get(c, 0) - factor * v
                    if p is not None:
                        nv %= p
                    if nv:
                        r[c] = nv
                    elif c in r:
                        del r[c]
            if r:
                nxt.append(r)
        active = nxt
    return rnk
