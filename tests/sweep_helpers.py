"""The sweep's own boundary maps and homology, shaped for tests.

Unlike the oracles in helpers.py, these call the code under test: they
are what the oracles are compared with, not oracles themselves.
"""

from collections import Counter

from srbetti.homology import _boundary_rows, reduced_dims_from_facets, torsion_shift
from srbetti.simplicial import face_masks


def boundary_rows(c, i):
    """The boundary map from (i+1)- to i-vertex faces of c, as the sweep
    ranks it: one sparse row per (i+1)-vertex face, over both groups sorted
    by mask.  i = 0 is the augmentation."""
    faces = sorted(face_masks(c.facets))
    return _boundary_rows([m for m in faces if m.bit_count() == i], [m for m in faces if m.bit_count() == i + 1])


def composes_to_zero(c):
    """Every composition of two consecutive boundary maps vanishes over Z."""
    for i in range(c.dim):
        lower = boundary_rows(c, i)
        for row in boundary_rows(c, i + 1):
            total = Counter()
            for k, v in row.items():
                for j, w in lower[k].items():
                    total[j] += v * w
            if any(total.values()):
                return False
    return True


def reduced_betti(c, p=None):
    """(b_{-1}, ..., b_dim) of c over GF(p), or over Q for p None, through
    the sweep's path: integral homology, then universal coefficients."""
    dims, torsion = reduced_dims_from_facets(c.facets)
    out = list(dims)
    for k in torsion_shift(torsion, p):
        out[k] += 1
    return out
