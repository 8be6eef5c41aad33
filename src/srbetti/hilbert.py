"""Exact Hilbert series, multiplicity and the resolution identities.

A polynomial is a tuple of integer coefficients, lowest degree first,
with trailing zeros trimmed; the empty tuple is the zero polynomial.  The
identities checked here are exact, so the tolerance everywhere is zero.

The Hilbert series of a face ring is h(z)/(1-z)^d, already in lowest terms
since h(1) = f_{d-1} > 0.  Over the common denominator (1-z)^n its numerator
is N(z) = (1-z)^(n-d) h(z) (`h_numerator`), and N equals the K-polynomial
sum_{i,j} (-1)^i beta_{i,j} z^j of any Betti table of the ring.  The series
identity, the closed-form Betti numbers and the h-relations of `formulas`
all read coefficients of this one polynomial.
"""

from __future__ import annotations

from itertools import zip_longest

from .betti import BettiTable
from .simplicial import FVector, HVector, h_vector


def _trim(coeffs) -> tuple[int, ...]:
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


def series_from_f(f: FVector) -> tuple[tuple[int, ...], int]:
    """Hilbert series of the face ring as (numerator, pole order): h(z) / (1-z)^d."""
    return _trim(h_vector(f).entries), f.d


def multiplicity(h: HVector) -> int:
    """The degree of the face ring, h(1): the sum of h."""
    return sum(h.entries)


def h_numerator(h: HVector, n: int) -> tuple[int, ...]:
    """N(z) = (1-z)^(n-d) * sum h_i z^i over (1-z)^n, d = len(h) - 1 (ValueError if n < d)."""
    d = len(h.entries) - 1
    if n < d:
        raise ValueError(f"need n >= d, got n={n}, d={d}")
    num = list(h.entries)
    for _ in range(n - d):
        num = [a - b for a, b in zip(num + [0], [0] + num)]
    return _trim(num)


def k_polynomial(table: BettiTable) -> tuple[int, ...]:
    """sum_{i,j} (-1)^i beta_{i,j} z^j over every cell of the table."""
    out = [0] * (max(j for _, j, _ in table.cells) + 1)
    for i, j, v in table.cells:
        out[j] += -v if i % 2 else v
    return _trim(out)


def verify_series_identity(h: HVector, table: BettiTable) -> tuple[int, ...]:
    """Residual N(z) minus the K-polynomial of the table, n = table.n.

    Empty (the zero polynomial) iff the identity holds; it holds for every
    table shape, and for a pure shape it is the paper's numerator identity.
    """
    pairs = zip_longest(h_numerator(h, table.n), k_polynomial(table), fillvalue=0)
    return _trim([a - b for a, b in pairs])
