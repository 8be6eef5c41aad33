"""Closed-form Betti numbers and h-vector relations for pure resolutions.

Both read coefficients of N(z) = (1-z)^(n-d) h(z), the coefficient tuple
`hilbert.h_numerator` returns; an index outside the tuple reads 0.  N equals
the K-polynomial 1 + sum_i (-1)^(i+1) beta_i z^(d_i) of a pure
resolution.  Given its shape (degrees), beta_i = (-1)^(i+1) [z^(d_i)] N; for
a t-linear shape of length p+1, N has degree at most p+t, so the vanishing
of [z^j] N for every j > p+t is a system of linear relations on the h-vector.
These are the formulas the oracle table is checked against; the shape is
always taken from the oracle, never guessed from h.  Every value is
returned as computed: on a correct table each beta_i is positive, and a
value <= 0 fails the comparison with the table.
"""

from __future__ import annotations

from math import comb

from .hilbert import h_numerator
from .simplicial import HVector


def _coeff(poly: tuple[int, ...], k: int) -> int:
    """[z^k] of a coefficient tuple; zero outside it, so a negative k never wraps."""
    return poly[k] if 0 <= k < len(poly) else 0


def betti_from_h(h: HVector, n: int, degrees: tuple[int, ...]) -> tuple[int, ...]:
    """beta_i = (-1)^(i+1) [z^(d_i)] (1-z)^(n-d) h(z), for i in 0..p.

    n is the number of vertices (= ambient variables) and d = len(h) - 1 the
    Krull dimension of the face ring, so n - d is the codimension; degrees
    d_0 < ... < d_p are a pure shape's (`ResolutionShape.degrees`).  Raises
    ValueError unless n >= d >= 1.  Every value is returned, whatever its
    sign: a value <= 0 means the degrees cannot be the shape of a minimal
    resolution for this h-vector, and it fails the comparison with the table.
    """
    if len(h.entries) < 2:
        raise ValueError(f"need d >= 1, got h={h.entries}")
    num = h_numerator(h, n)
    return tuple(_coeff(num, di) if i % 2 else -_coeff(num, di) for i, di in enumerate(degrees))


def h_relations(h: HVector, n: int, p: int, t: int) -> tuple[int, ...]:
    """Residuals [z^j] (1-z)^(n-d) h(z) for j in (p+t, n].

    All must vanish when the face ring has a t-linear resolution of length
    p+1; residuals beyond j = n vanish identically and are not emitted.
    Nonzero residuals are returned as data, not raised as errors.
    """
    num = h_numerator(h, n)
    return tuple(_coeff(num, j) for j in range(p + t + 1, n + 1))


def check_lower_bound(betti: tuple[int, ...]) -> tuple[bool, ...]:
    """Per-index verdicts beta_i >= C(p, i) for a pure resolution of length p+1 = len(betti)."""
    return tuple(b >= comb(len(betti) - 1, i) for i, b in enumerate(betti))
