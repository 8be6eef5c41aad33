"""Closed-form Betti numbers and h-vector relations for pure resolutions.

Both read coefficients of N(z) = (1-z)^(n-d) h(z), the coefficient tuple
`hilbert.h_numerator` returns; an index outside the tuple reads 0.  N equals
the K-polynomial 1 + sum_i (-1)^(i+1) beta_i z^(d_i) of a pure
resolution.  Given its shape (degrees), beta_i = (-1)^(i+1) [z^(d_i)] N; for
a t-linear shape of length p+1, N has degree at most p+t, so the vanishing
of [z^j] N for every j > p+t is a system of linear relations on the h-vector.
These are the formulas the oracle table is checked against; the shape is
always taken from the oracle, never guessed from h.
"""

from __future__ import annotations

from math import comb

from .betti import classify, graded_betti
from .errors import NonPositiveResultError, NotChordalError
from .graphs import Graph, clique_complex, is_chordal
from .hilbert import h_numerator
from .simplicial import HVector, f_vector, h_vector


def _coeff(poly: tuple[int, ...], k: int) -> int:
    """[z^k] of a coefficient tuple; zero outside it, so a negative k never wraps."""
    return poly[k] if 0 <= k < len(poly) else 0


def betti_from_h(h: HVector, n: int, d: int, degrees: tuple[int, ...]) -> tuple[int, ...]:
    """beta_i = (-1)^(i+1) [z^(d_i)] (1-z)^(n-d) h(z), for i in 0..p.

    n is the number of vertices (= ambient variables), d the Krull dimension
    of the face ring (complex dimension + 1), so n - d is the codimension;
    degrees d_0 < ... < d_p are a pure shape's (`ResolutionShape.degrees`).
    Raises ValueError unless n >= d >= 1.  A result <= 0 means the degree
    data cannot be the shape of a minimal resolution for this h-vector, and
    raises NonPositiveResultError.
    """
    if not n >= d >= 1:
        raise ValueError(f"need n >= d >= 1, got n={n}, d={d}")
    num = h_numerator(h, n, d)
    out = []
    for i, di in enumerate(degrees):
        s = _coeff(num, di) if i % 2 else -_coeff(num, di)
        if s <= 0:
            raise NonPositiveResultError(
                f"beta_{i} = {s} <= 0 for degrees {degrees}; inconsistent degree data"
            )
        out.append(s)
    return tuple(out)


def h_relations(h: HVector, n: int, d: int, p: int, t: int) -> tuple[int, ...]:
    """Residuals [z^j] (1-z)^(n-d) h(z) for j in (p+t, n].

    All must vanish when the face ring has a t-linear resolution of length
    p+1; residuals beyond j = n vanish identically and are not emitted.
    Nonzero residuals are returned as data, not raised as errors.
    """
    num = h_numerator(h, n, d)
    return tuple(_coeff(num, j) for j in range(p + t + 1, n + 1))


def chordal_h_relations(g: Graph) -> tuple[int, ...]:
    """The linear-relation residuals for the clique complex of a chordal graph.

    Builds the clique complex, takes p from the shape of its oracle table
    and t = 2 (Froberg: the non-faces of a flag complex are generated by
    quadrics), and evaluates h_relations; all residuals are zero for
    chordal input.  A complete graph has zero ideal and no relations: the
    empty tuple is returned.  Raises NotChordalError for a non-chordal
    graph, and ValueError should a chordal graph's table be neither linear
    nor trivial.  The table is the same over every field: each induced
    subcomplex of a chordal clique complex is a disjoint union of
    contractible pieces, so it has no torsion.
    """
    ok, _ = is_chordal(g.adj)
    if not ok:
        raise NotChordalError("clique-complex relations require a chordal graph")
    c = clique_complex(g)
    shape = classify(graded_betti(c))
    if shape.kind == "trivial":
        return ()
    if shape.kind != "linear":
        raise ValueError(f"chordal graph with a {shape.kind!r} table, not linear")
    f = f_vector(c)
    return h_relations(h_vector(f), c.n, f.d, shape.p, 2)


def check_lower_bound(betti: tuple[int, ...], p: int) -> tuple[bool, ...]:
    """Per-index verdicts beta_i >= C(p, i) for a pure resolution of length p+1."""
    if len(betti) != p + 1:
        raise ValueError(f"expected {p + 1} Betti numbers, got {len(betti)}")
    return tuple(betti[i] >= comb(p, i) for i in range(p + 1))
