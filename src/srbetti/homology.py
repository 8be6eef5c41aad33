"""Reduced simplicial homology of a complex, integrally.

One integral computation per complex gives the Betti numbers over Q and
the torsion; those over GF(p) follow by universal coefficients.

Works with the augmented chain complex: the empty face spans the chain group
in degree -1 and the augmentation map sends every vertex to it.  Reduced
homology in degree -1 is therefore 1 exactly for the empty complex, which is
what the subset formula for graded Betti numbers consumes.

`reduced_dims_from_facets` takes any collection of face masks whose
down-closure is the complex; they need not form an antichain or use the
lowest bits.  It eliminates only the faces outside the star of one vertex
v.  st(v) is a cone, so its augmented chain complex is a free, acyclic
subcomplex, and the long exact sequence of the pair gives
H(complex; Z) = H(complex / st(v)).  The quotient is free, so the pair's
sequence stays exact after tensoring with GF(p), where the cone is still
acyclic: the Betti numbers over Q and over every GF(p), and so the
torsion (each map's invariant factors > 1), are those of the full complex.
The quotient's basis is the faces F with F + v not a face, and its
boundary drops the faces of the star.

`boundary_matrix` orders the faces within a dimension by ascending mask, so
its matrices are reproducible; the quotient's order does not affect any
result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimensionOutOfRangeError
from .exactla import GF_DEFAULT, FieldSpec, SparseMatrix, integral_rank
from .simplicial import Complex, masks_by_card


@dataclass(frozen=True)
class ReducedBetti:
    """Dimensions (b_{-1}, b_0, ..., b_dim) of reduced homology."""

    dims: tuple[int, ...]

    def get(self, i: int) -> int:
        """b_i with i from -1 up; out-of-range degrees are 0."""
        if -1 <= i < len(self.dims) - 1:
            return self.dims[i + 1]
        return 0

    def total(self) -> int:
        return sum(self.dims)


def _boundary_rows(lower: Sequence[int], upper: Sequence[int]) -> list[dict[int, int]]:
    """The map from span(upper) to span(lower), one cardinality down, as one
    sparse row per face F of upper: (-1)^k at the index in lower of F minus
    its k-th smallest vertex, for each such face that lower has.  This is
    the transpose of the boundary matrix, which has the same rank and
    invariant factors."""
    index = {m: i for i, m in enumerate(lower)}
    rows = []
    for m in upper:
        row = {}
        sign = 1
        rest = m
        while rest:
            low = rest & -rest
            i = index.get(m ^ low)
            if i is not None:
                row[i] = sign
            sign = -sign
            rest ^= low
        rows.append(row)
    return rows


def boundary_matrix(c: Complex, i: int) -> SparseMatrix:
    """The i-th boundary map of the augmented chain complex of c.

    Rows are the (i-1)-faces and columns the i-faces, both sorted by mask.
    i = 0 is the augmentation (a single all-ones row); i = -1 is the 0 x 1
    map out of the empty-face chain group.
    """
    if not -1 <= i <= c.dim:
        raise DimensionOutOfRangeError(f"degree {i} outside [-1, {c.dim}]")
    groups = masks_by_card(c.facets)
    if i == -1:
        return SparseMatrix(0, 1, ())
    rows = _boundary_rows(groups[i], groups[i + 1])
    entries = tuple((r, j, v) for j, row in enumerate(rows) for r, v in row.items())
    return SparseMatrix(len(groups[i]), len(groups[i + 1]), entries)


def reduced_dims_from_facets(facets: Iterable[int]) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Integral homology data of the complex spanned by some face masks:
    the reduced Betti numbers over Q, (b_{-1}, ..., b_dim), and the
    torsion, as (i, t) for each invariant factor t > 1 of the boundary map
    i (from i-faces to (i-1)-faces; 0 is the augmentation).

    `facets` may be any nonempty collection of masks whose down-closure is
    the complex, in any order; (0,) is the empty complex.  Computed on the
    quotient by the star of the apex v, the lowest vertex of a largest mask
    (a choice that affects speed only).  Every face outside st(v) lies in a
    mask without v, so only those masks are enumerated.  The dims have
    length (largest mask cardinality) + 1, star masks included.
    """
    facets = list(facets)
    big = max(facets, key=int.bit_count)
    top = big.bit_count()
    if not top:
        return (1,), ()
    v = big & -big
    star = set()  # the v-free faces of st(v)
    for g in facets:
        if g & v:
            g ^= v
            sub = g
            while sub:
                star.add(sub)
                sub = (sub - 1) & g
    outside = set()
    for g in facets:
        if not g & v:
            sub = g
            while sub:
                if sub not in star:
                    outside.add(sub)
                sub = (sub - 1) & g
    groups: list[list[int]] = [[] for _ in range(top + 1)]
    for m in outside:
        groups[m.bit_count()].append(m)
    ranks = [0] * (top + 1)  # ranks[i]: the map from (i+1)- to i-vertex faces
    torsion = []
    for i in range(top):
        ranks[i], factors = integral_rank(_boundary_rows(groups[i], groups[i + 1]))
        torsion.extend((i, t) for t in factors)
    # the empty face lies in st(v), so groups[0] is empty and b_{-1} = 0
    dims = [len(g) - r - s for g, r, s in zip(groups, [0] + ranks, ranks)]
    return tuple(dims), tuple(torsion)


def torsion_shift(torsion: Sequence[tuple[int, int]], p: int | None) -> list[int]:
    """Indices into reduced dims (b_{-1} at 0) that gain one over GF(p)
    against Q; none over Q (p None).

    By universal coefficients, a factor t of map i with p | t lowers that
    map's rank by one, so b_{i-1} and b_i each rise by one.
    """
    if p is None:
        return []
    return [k for i, t in torsion if t % p == 0 for k in (i, i + 1)]


def reduced_homology_dims(c: Complex, field: FieldSpec = GF_DEFAULT) -> ReducedBetti:
    """Reduced Betti numbers of c over the field, derived from its integral
    homology by universal coefficients."""
    dims, torsion = reduced_dims_from_facets(c.facets)
    out = list(dims)
    for k in torsion_shift(torsion, field.p):
        out[k] += 1
    return ReducedBetti(tuple(out))


def boundary_squared_is_zero(c: Complex) -> bool:
    """Check boundary(i) o boundary(i+1) = 0 over the integers for all i."""
    for i in range(0, c.dim):
        a = boundary_matrix(c, i).to_dense()
        b = boundary_matrix(c, i + 1).to_dense()
        for arow in a:
            for j in range(len(b[0]) if b else 0):
                if sum(arow[k] * b[k][j] for k in range(len(b))) != 0:
                    return False
    return True
