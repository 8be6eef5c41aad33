"""Reduced simplicial homology dimensions over a field.

One integral computation per complex gives the Betti numbers over Q and
the torsion; those over GF(p) follow by universal coefficients.

Works with the augmented chain complex: the empty face spans the chain group
in degree -1 and the augmentation map sends every vertex to it.  Reduced
homology in degree -1 is therefore 1 exactly for the empty complex, which is
what the subset formula for graded Betti numbers consumes.

Faces within a dimension are ordered by ascending bitmask value, so boundary
matrices are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionOutOfRangeError
from .exactla import GF_DEFAULT, FieldSpec, SparseMatrix, integral_rank
from .simplicial import Complex, _bits, masks_by_card


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
    its k-th smallest vertex.  This is the transpose of the boundary matrix,
    which has the same rank and invariant factors."""
    index = {m: i for i, m in enumerate(lower)}
    rows = []
    for m in upper:
        row = {}
        for k, v in enumerate(_bits(m)):
            row[index[m ^ (1 << v)]] = -1 if k % 2 else 1
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


def reduced_dims_from_facets(facets: Sequence[int]) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Integral homology data from facet masks alone: the reduced Betti
    numbers over Q, (b_{-1}, ..., b_dim), and the torsion, as (i, t) for
    each invariant factor t > 1 of the boundary map i (from i-faces to
    (i-1)-faces; 0 is the augmentation).

    Mask-level entry point used by the graded Betti sweep.
    """
    groups = masks_by_card(facets)
    top = len(groups) - 1
    ranks = [0] * (top + 1)
    torsion = []
    for i in range(top):
        ranks[i], factors = integral_rank(_boundary_rows(groups[i], groups[i + 1]))
        torsion.extend((i, t) for t in factors)
    dims = [1 - ranks[0]]
    for i in range(top):
        dims.append(len(groups[i + 1]) - ranks[i] - ranks[i + 1])
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
    """b_i = (number of i-faces) - rank(boundary_i) - rank(boundary_{i+1}),
    derived from the integral homology of c."""
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
