"""Graded Betti numbers of the face ring, by the subset homology formula.

beta_{i,j} = sum over j-element vertex subsets W of the dimension of reduced
homology in degree j-i-1 of the restriction of the complex to W.  This is
the oracle everything else is checked against: it sums nonnegative homology
dimensions, so accumulation order cannot matter.

The sweep visits W in ascending order, collecting the minimal non-faces of
the complex on the way; those inside W are the minimal non-faces of the
restriction and determine it.  Three optimizations, none affecting results:
  - W is skipped when those non-faces do not cover it: an uncovered vertex
    is an apex, and cones are contractible and contribute nothing;
  - homology of a restriction is cached on those non-faces relabeled to W
    (`_key`), since isomorphic restrictions recur massively across sweeps;
  - a miss reduces {f & W} to its maximal masks and looks for the lowest
    vertex u of W whose link is a cone: another vertex of W lies in every
    maximal mask through u.  Then Delta_W strong-collapses onto
    Delta_(W-u) (Barmak and Minian 2012, "Strong homotopy types, nerves
    and collapses"), so the two are homotopy equivalent and have the same
    integral homology, torsion included.  W - u < W, so the ascending sweep
    has visited it: it is a cone, and Delta_W is acyclic, or its entry is
    in the cache under its own key, the non-faces inside W that avoid u
    relabeled to W - u.  Only when no vertex qualifies, or that entry is
    absent (the cache is capped or was cleared), is the homology computed,
    from the maximal masks, neither relabeled nor reduced further.
A cache lookup therefore ends in one of three ways: a hit, a collapse
onto a smaller restriction's entry, or a computed elimination.  Only the
last calls `reduced_dims_from_facets`.

The loop is one resumable sweep, `_Sweep`, with two callers.
`graded_betti` runs it over all of [0, 2^n).  The Froberg sweep
(verify._extension_tables) runs it once over [0, 2^(n-1)) for each graph
on the first n-1 vertices: a W without the last vertex v restricts every
extension of the graph alike, so those subsets are swept once per base
graph.  It then starts one sweep per neighbour set N of v from that state
and steps them in lockstep over the W through v, one W at a time: W
restricts extension N as it restricts extension N & W, so each W is
visited once per distinct N & W and the visit's findings go to every N
that shares it.  That is 3^(n-1) visits through v per base graph, not
4^(n-1).  The W - u a miss collapses onto is visited before W there too:
in the base graph's sweep if u is v, else in the sweep of N & (W - u).

Homology is integral: the sweep adds up the table over Q and keeps the
torsion of the few restrictions that have any, from which the table over
every GF(p) follows, so one sweep serves every field.

`_HOM_CACHE` is process-wide: its key is one int, the packed non-faces
shifted past |W|, and its value a miss's (Betti numbers over Q, torsion) in
one write, so a reader sees a whole entry or none.  A collapsed miss stores
the entry it collapsed onto, whose Betti numbers may stop at a lower degree,
or no Betti numbers at all for an acyclic one.  It stops inserting at
`_HOM_CACHE_LIMIT` entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TooManyVerticesError
from .exactla import GF_DEFAULT, QQ, FieldSpec
from .homology import reduced_dims_from_facets, torsion_shift
from .simplicial import Complex, _bits, _maximal_masks

DEFAULT_VERTEX_CAP = 20

_HOM_CACHE: dict[int, tuple[tuple[int, ...], tuple[tuple[int, int], ...]]] = {}
_HOM_CACHE_LIMIT = 1 << 20


@dataclass(frozen=True)
class BettiTable:
    """Nonzero graded Betti numbers as sorted (i, j, value) cells.

    i is the homological degree (0 for the ring itself, so the only i = 0
    cell is (0, 0, 1)), j the internal degree.  Absent cells are zero.
    `torsion` lists (|W|, torsion) for each restriction Delta_W with torsion
    in its integral homology (see homology.reduced_dims_from_facets); it is
    all the table over another field needs.
    """

    cells: tuple[tuple[int, int, int], ...]
    n: int
    field: FieldSpec
    torsion: tuple[tuple[int, tuple[tuple[int, int], ...]], ...] = ()

    def over(self, field: FieldSpec) -> "BettiTable":
        """The same complex's table over another field."""
        if not self.torsion:  # no torsion: the same table over every field
            return BettiTable(self.cells, self.n, field)
        acc = self.as_dict()
        for j, torsion in self.torsion:
            for k in torsion_shift(torsion, self.field.p):
                acc[j - k, j] -= 1
            for k in torsion_shift(torsion, field.p):
                acc[j - k, j] = acc.get((j - k, j), 0) + 1
        cells = tuple(sorted((i, j, v) for (i, j), v in acc.items() if v))
        return BettiTable(cells, self.n, field, self.torsion)

    @property
    def pdim(self) -> int:
        """Projective dimension: the largest homological degree present."""
        return max(a for a, _, _ in self.cells)

    def total(self, i: int) -> int:
        return sum(v for a, _, v in self.cells if a == i)

    def max_j(self) -> int:
        return max(b for _, b, _ in self.cells)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(a, b): v for a, b, v in self.cells}


_ACYCLIC: tuple[tuple[int, ...], tuple[tuple[int, int], ...]] = ((), ())  # no homology, no torsion


def _key(inside: list[int], w: int, below: dict[int, list[int]]) -> int | None:
    """The cache key of the restriction to w, from the minimal non-faces
    inside w in the order the sweep found them: those non-faces relabeled
    to w and packed, shifted past |w|.  None when they do not cover w: a
    vertex of w in none of them is an apex, and the restriction a cone."""
    union = 0
    for g in inside:
        union |= g
    if union != w:
        return None
    j = w.bit_count()
    packed = 0
    for g in inside:
        # compact g to w: vertex v of g becomes bit (number of w's vertices below v)
        packed <<= j
        for m in below[g]:
            packed |= 1 << (w & m).bit_count()
    return packed << 7 | j  # j <= 64 fits in 7 bits


def _dominated(maximal: list[int], w: int) -> int:
    """The lowest vertex u of w (as a bit) for which another vertex of w
    lies in every maximal mask through u, that is, whose link is a cone;
    0 if there is none."""
    rest = w
    while rest:
        u = rest & -rest
        common = w ^ u
        for m in maximal:
            if m & u:
                common &= m
        if common:
            return u
        rest ^= u
    return 0


def _miss(masks, w: int, inside: list[int], below: dict[int, list[int]]):
    """The homology of the restriction to w, which the cache lacks.

    When the link of a vertex u is a cone, the restriction strong-collapses
    onto the restriction to w - u, which the ascending sweep has visited
    before w: its homology is zero if w - u is a cone, else the cache entry
    under w - u's key.  Otherwise, or when that entry is absent (the cache
    is capped or was cleared), it is computed."""
    maximal = _maximal_masks({f & w for f in masks})
    u = _dominated(maximal, w)
    if u:
        key = _key([g for g in inside if not g & u], w ^ u, below)
        if key is None:
            return _ACYCLIC
        hom = _HOM_CACHE.get(key)
        if hom is not None:
            return hom
    return reduced_dims_from_facets(maximal)


class _Sweep:
    """The subset sweep, resumable: its state after visiting W in [0, stop).

    The state is the minimal non-faces met so far (`gens`, with `below`,
    each generator's masks of the bits below its vertices), the table over
    Q and the torsion list.  Every subset of W is numerically <= W, and a
    visit to W reads only the minimal non-faces inside W, so a sweep over
    [0, 2^n) may stop at any point and go on with another complex, provided
    both complexes restrict alike to each W already visited.
    """

    __slots__ = ("gens", "below", "acc", "torsions")

    def __init__(self, gens=(), below=None, acc=(), torsions=()):
        self.gens: list[int] = list(gens)
        # below[g] depends on g alone, so sweeps may share one dict
        self.below: dict[int, list[int]] = {} if below is None else below
        self.acc: dict[tuple[int, int], int] = dict(acc)  # the table over Q
        self.torsions: list[tuple[int, tuple[tuple[int, int], ...]]] = list(torsions)

    def run(self, masks, start: int, stop: int) -> None:
        """Visit W = start ... stop-1 of the complex that is the down-closure
        of these face masks (its facets, or any masks that span it)."""
        gens, below, acc, torsions = self.gens, self.below, self.acc, self.torsions
        for w in range(start, stop):
            inside = [g for g in gens if g & w == g]
            if not inside:
                for f in masks:
                    if w & f == w:
                        break
                else:  # w is in no face, but every proper subset of w is one
                    gens.append(w)
                    below[w] = [(1 << v) - 1 for v in _bits(w)]
                    inside = [w]
            key = _key(inside, w, below)
            if key is None:
                continue  # a vertex of w in no minimal non-face is an apex: a cone
            hom = _HOM_CACHE.get(key)
            if hom is None:
                hom = _miss(masks, w, inside, below)
                if len(_HOM_CACHE) < _HOM_CACHE_LIMIT:
                    _HOM_CACHE[key] = hom
            dims, torsion = hom
            j = w.bit_count()
            if torsion:
                torsions.append((j, torsion))
            for r_idx, b in enumerate(dims):
                if b:
                    # reduced degree r = r_idx - 1 contributes at i = j - r - 1
                    acc[(j - r_idx, j)] = acc.get((j - r_idx, j), 0) + b

    def table(self, n: int, field: FieldSpec) -> BettiTable:
        """The table of a sweep that has visited all 2^n subsets."""
        cells = tuple(sorted((i, j, v) for (i, j), v in self.acc.items()))
        return BettiTable(cells, n, QQ, tuple(self.torsions)).over(field)


def graded_betti(c: Complex, field: FieldSpec = GF_DEFAULT, n_cap: int = DEFAULT_VERTEX_CAP) -> BettiTable:
    """Exact graded Betti numbers of the face ring of c over the field.

    Sweeps all vertex subsets; cost is 2^n times a small homology problem,
    so n is capped (default 20).  The sweep computes integral homology, so
    the table over any other field follows from the result by `over`.
    """
    if c.n > n_cap:
        raise TooManyVerticesError(f"{c.n} vertices exceeds the sweep cap {n_cap}")
    sweep = _Sweep()
    sweep.run(c.facets, 0, 1 << c.n)
    return sweep.table(c.n, field)


@dataclass(frozen=True)
class ResolutionShape:
    """Classification of a Betti table.

    kind is one of:
      "trivial"  zero ideal: only the (0, 0) cell, no resolution data
      "linear"   pure with consecutive degrees d_i = t + i
      "pure"     one internal degree per homological degree, not linear
      "general"  anything else
    For pure/linear shapes, `degrees` and `betti` display the ring
    separately: index i covers homological degree i+1 of the table, so
    betti[i] is the entry at (i+1, d_i), and p = pdim - 1.  Trivial and
    general shapes carry neither, and their p and t are None.
    """

    kind: str
    degrees: tuple[int, ...] | None = None
    betti: tuple[int, ...] | None = None

    @property
    def p(self) -> int | None:
        return None if self.degrees is None else len(self.degrees) - 1

    @property
    def t(self) -> int | None:
        return self.degrees[0] if self.kind == "linear" else None

    @property
    def is_pure(self) -> bool:
        return self.kind in ("pure", "linear")

    @property
    def is_linear_or_trivial(self) -> bool:
        """Linear, counting the zero ideal (a full simplex) as vacuously
        linear.  By Froberg's theorem this is the shape of exactly the clique
        complexes of chordal graphs."""
        return self.kind in ("linear", "trivial")


def classify(table: BettiTable) -> ResolutionShape:
    """Pure / linear / general classification of a Betti table.

    Pure means every homological degree >= 1 carries exactly one internal
    degree, and these increase; linear additionally has consecutive
    degrees.  The zero ideal (a full simplex, nothing beyond beta_{0,0})
    gets the distinguished "trivial" shape rather than an error.  This is
    the one place that reads degrees and pure Betti numbers off a table.
    """
    degrees: list[int] = []
    betti: list[int] = []
    for a, b, v in table.cells:  # sorted by (i, j)
        if a == 0:
            continue
        # pure: the next homological degree, at a larger internal degree
        if a != len(degrees) + 1 or (degrees and b <= degrees[-1]):
            return ResolutionShape("general")
        degrees.append(b)
        betti.append(v)
    if not degrees:
        return ResolutionShape("trivial")
    kind = "linear" if degrees[-1] - degrees[0] == len(degrees) - 1 else "pure"
    return ResolutionShape(kind, tuple(degrees), tuple(betti))


def clear_homology_cache() -> None:
    _HOM_CACHE.clear()
