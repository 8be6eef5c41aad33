"""The sweep's own boundary maps and homology, shaped for tests, and a
recorder of the work a sweep does.

Unlike the oracles in helpers.py, these call the code under test: they
are what the oracles are compared with, not oracles themselves.
"""

from collections import Counter
from functools import reduce
from operator import or_

from srbetti import betti
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


class Work:
    """The work of the sweeps run while `record_work` is installed, in order:
      eliminations  the masks of each elimination, one per core visited
      visits        the vertex set of each core visited, of the sweep or of
                    a link restriction, each `_Results`'s empty subset
                    included
      cores         the subset W of each core of the sweep, visited while
                    no link restriction is computed
      links         the vertex set of each link restriction computed off
                    flag complexes, of a vertex or of a larger face
                    (`betti._link_result` not read from its memo; a simplex
                    is never memoised, so it counts on every call)
      splits        the ids (a, link) of each `_Results.split` call"""

    def __init__(self):
        self.eliminations, self.visits, self.cores, self.links, self.splits = [], [], [], [], []

    def clear(self):
        for events in vars(self).values():
            events.clear()


def record_work(monkeypatch) -> Work:
    """Wrap betti's `reduced_dims_from_facets`, `_Results.core`,
    `_Results.split` and `_link_result`, once each, to record the Work
    they do."""
    work = Work()
    computing = []
    real_dims, real_core, real_split, real_link = (
        betti.reduced_dims_from_facets, betti._Results.core, betti._Results.split, betti._link_result
    )

    def dims(facets):
        work.eliminations.append(facets)
        return real_dims(facets)

    def core(self, maximal):
        work.visits.append(reduce(or_, maximal))
        if not computing:
            work.cores.append(work.visits[-1])
        return real_core(self, maximal)

    # bound once: the sweep of the graphs on 7 vertices splits 744,277 times
    record_split = work.splits.append

    def split(self, a, link):
        record_split((a, link))
        return real_split(self, a, link)

    def link_result(sigma, s, face, stars, results):
        if s and s not in stars[sigma][0]:
            work.links.append(s)
        computing.append(s)
        try:
            return real_link(sigma, s, face, stars, results)
        finally:
            computing.pop()

    monkeypatch.setattr(betti, "reduced_dims_from_facets", dims)
    monkeypatch.setattr(betti._Results, "core", core)
    monkeypatch.setattr(betti._Results, "split", split)
    monkeypatch.setattr(betti, "_link_result", link_result)
    return work
