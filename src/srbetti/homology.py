"""Reduced simplicial homology dimensions over a field.

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
from .exactla import GF_DEFAULT, FieldSpec, SparseMatrix, rank
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


def _boundary_entries(lower: Sequence[int], upper: Sequence[int]) -> tuple[tuple[int, int, int], ...]:
    """Entries of the map from span(upper) to span(lower), one cardinality down.

    Column F gets (-1)^k in the row of F minus its k-th smallest vertex.
    """
    index = {m: i for i, m in enumerate(lower)}
    entries = []
    for j, m in enumerate(upper):
        for k, v in enumerate(_bits(m)):
            entries.append((index[m ^ (1 << v)], j, -1 if k % 2 else 1))
    return tuple(entries)


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
    return SparseMatrix(len(groups[i]), len(groups[i + 1]), _boundary_entries(groups[i], groups[i + 1]))


def reduced_dims_from_facets(facets: Sequence[int], field: FieldSpec) -> tuple[int, ...]:
    """Reduced homology dimensions (b_{-1}, ..., b_dim) from facet masks alone.

    Mask-level entry point used by the graded Betti sweep.
    """
    groups = masks_by_card(facets)
    top = len(groups) - 1
    ranks = [0] * (top + 1)
    for i in range(top):
        mat = SparseMatrix(len(groups[i]), len(groups[i + 1]), _boundary_entries(groups[i], groups[i + 1]))
        ranks[i] = rank(mat, field)
    dims = [1 - ranks[0]]
    for i in range(top):
        dims.append(len(groups[i + 1]) - ranks[i] - ranks[i + 1])
    return tuple(dims)


def reduced_homology_dims(c: Complex, field: FieldSpec = GF_DEFAULT) -> ReducedBetti:
    """b_i = (number of i-faces) - rank(boundary_i) - rank(boundary_{i+1})."""
    return ReducedBetti(reduced_dims_from_facets(c.facets, field))


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
