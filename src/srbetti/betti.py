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

`graded_betti` runs the sweep, `_Sweep`, over all of [0, 2^n).  The
Froberg sweep (verify.froberg_exhaustive) takes the extensions of each
graph on the first n-1 vertices by a last vertex v together, in
`_extension_tables`.  A W without v restricts every extension alike, so
`_Sweep` runs once per base graph, over [0, 2^(n-1)).  A W through v
restricts extension N as it restricts extension N' = N & W, and the
minimal non-faces inside W are the base graph's, then the non-edges
{x, v}.  So the key of each (W, N') is assembled from a base part packed
once per W and one slot per x in W - N', cones are never looked up, and
the entry goes to every N that shares N'.  On the graphs on 6 vertices
that is 32,768 subsets without v and 166,969 lookups through it, out of
3^5 pairs (W, N') per base graph.  The W - u a miss collapses onto is
looked up before W there too: in the base graph's sweep if u is v, else
as the pair (W - u, N' - u).

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


def _packed(inside: list[int], w: int, below: dict[int, list[int]]) -> int:
    """These non-faces inside w relabeled to w, one |w|-bit slot each, the
    first one highest."""
    j = w.bit_count()
    packed = 0
    for g in inside:
        # compact g to w: vertex v of g becomes bit (number of w's vertices below v)
        packed <<= j
        for m in below[g]:
            packed |= 1 << (w & m).bit_count()
    return packed


def _key(inside: list[int], w: int, below: dict[int, list[int]]) -> int | None:
    """The cache key of the restriction to w, from the minimal non-faces
    inside w in the order the sweep found them: those non-faces packed,
    shifted past |w|.  None when they do not cover w: a vertex of w in
    none of them is an apex, and the restriction a cone."""
    union = 0
    for g in inside:
        union |= g
    if union != w:
        return None
    return _packed(inside, w, below) << 7 | w.bit_count()  # |w| <= 64 fits in 7 bits


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


def _miss(key: int, masks, w: int, inside: list[int], below: dict[int, list[int]]):
    """The homology of the restriction to w, which the cache lacks under
    key; stored there unless the cache is full.

    When the link of a vertex u is a cone, the restriction strong-collapses
    onto the restriction to w - u, which the ascending sweep has visited
    before w: its homology is zero if w - u is a cone, else the cache entry
    under w - u's key.  Otherwise, or when that entry is absent (the cache
    is capped or was cleared), it is computed."""
    maximal = _maximal_masks({f & w for f in masks})
    u = _dominated(maximal, w)
    hom = None
    if u:
        collapsed = _key([g for g in inside if not g & u], w ^ u, below)
        hom = _ACYCLIC if collapsed is None else _HOM_CACHE.get(collapsed)
    if hom is None:
        hom = reduced_dims_from_facets(maximal)
    if len(_HOM_CACHE) < _HOM_CACHE_LIMIT:
        _HOM_CACHE[key] = hom
    return hom


class _Sweep:
    """The subset sweep's state after visiting W = 0 ... stop-1: the minimal
    non-faces met (`gens`, in the order found, with `below`, each one's
    masks of the bits below its vertices), the table over Q and the torsion
    list."""

    __slots__ = ("gens", "below", "acc", "torsions")

    def __init__(self, masks, stop: int):
        """Sweep the complex that is the down-closure of these face masks
        (its facets, or any masks that span it)."""
        self.gens: list[int] = []
        self.below: dict[int, list[int]] = {}
        self.acc: dict[tuple[int, int], int] = {}
        self.torsions: list[tuple[int, tuple[tuple[int, int], ...]]] = []
        gens, below, acc, torsions = self.gens, self.below, self.acc, self.torsions
        for w in range(stop):
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
                hom = _miss(key, masks, w, inside, below)
            dims, torsion = hom
            j = w.bit_count()
            if torsion:
                torsions.append((j, torsion))
            for r_idx, b in enumerate(dims):
                if b:
                    # reduced degree r = r_idx - 1 contributes at i = j - r - 1
                    acc[(j - r_idx, j)] = acc.get((j - r_idx, j), 0) + b


def _table(acc: dict[tuple[int, int], int], torsions: list, n: int, field: FieldSpec) -> BettiTable:
    """The table over the field of a complex on n vertices, from its table
    over Q and its torsion list summed over all 2^n subsets."""
    cells = tuple(sorted((i, j, v) for (i, j), v in acc.items()))
    return BettiTable(cells, n, QQ, tuple(torsions)).over(field)


def graded_betti(c: Complex, field: FieldSpec = GF_DEFAULT, n_cap: int = DEFAULT_VERTEX_CAP) -> BettiTable:
    """Exact graded Betti numbers of the face ring of c over the field.

    Sweeps all vertex subsets; cost is 2^n times a small homology problem,
    so n is capped (default 20).  The sweep computes integral homology, so
    the table over any other field follows from the result by `over`.
    """
    if c.n > n_cap:
        raise TooManyVerticesError(f"{c.n} vertices exceeds the sweep cap {n_cap}")
    sweep = _Sweep(c.facets, 1 << c.n)
    return _table(sweep.acc, sweep.torsions, c.n, field)


def _submasks(mask: int):
    """Every submask of mask, mask itself first and 0 last."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def _extension_masks(cliques: list[int], nbrs: int, last: int) -> list[int]:
    """Masks whose down-closure is the clique complex of a graph with
    maximal cliques `cliques`, extended by the vertex with bit `last` and
    neighbour set nbrs: C & N plus the new vertex for each C, then the
    cliques C.  A clique through the new vertex is a clique inside N plus
    that vertex, and every clique inside N lies in some C & N.  Not all of
    the masks are maximal, which a miss does not need."""
    return [c & nbrs | last for c in cliques] + cliques


def _extension_tables(cliques: list[int], k: int, field: FieldSpec) -> list[BettiTable]:
    """The Betti table of the clique complex of each extension of a graph
    on k vertices, with maximal cliques `cliques` ([0] for k = 0), by a
    vertex v = k, indexed by v's neighbour set N.

    The base graph is swept once over its 2^k subsets W, which restrict
    every extension alike.  W + v restricts extension N as it restricts
    extension N' = N & W, so each (W, N') is looked up once and its
    homology goes to every N with N & W = N'.  Its minimal non-faces are
    the base graph's inside W, as the base sweep found them, then the
    non-edges {x, v} for x in W - N', in ascending order: the order a sweep
    of the extension finds them.  So its cache key is the base part, packed
    once per W, followed by one slot per x; it is a cone, and skipped, when
    N' = W (v is an apex) or N' has a vertex in no base non-face.
    """
    last = 1 << k
    base = _Sweep(cliques, last)
    gens = base.gens
    below = dict(base.below)
    for x in range(k):
        below[1 << x | last] = [(1 << x) - 1, last - 1]
    accs = [dict(base.acc) for _ in range(last)]
    torsions = [list(base.torsions) for _ in range(last)]
    for sub in range(last):
        inside = [g for g in gens if g & sub == g]
        union = 0
        for g in inside:
            union |= g
        w = sub | last
        j = sub.bit_count() + 1
        packed = _packed(inside, w, below)
        # the slot _packed gives the non-edge {x, v}: x's rank in sub, and v's
        top = 1 << (j - 1)
        slots = {1 << x: 1 << r | top for r, x in enumerate(_bits(sub))}
        others = list(_submasks((last - 1) ^ sub))
        for nbrs in _submasks(sub & union):
            missing = sub ^ nbrs
            if not missing:
                continue  # v is an apex
            key = packed
            rest = missing
            while rest:
                x = rest & -rest
                key = key << j | slots[x]
                rest ^= x
            key = key << 7 | j
            hom = _HOM_CACHE.get(key)
            if hom is None:
                new = [1 << x | last for x in _bits(missing)]
                hom = _miss(key, _extension_masks(cliques, nbrs, last), w, inside + new, below)
            dims, torsion = hom
            for r_idx, b in enumerate(dims):
                if b:
                    cell = (j - r_idx, j)
                    for other in others:
                        acc = accs[nbrs | other]
                        acc[cell] = acc.get(cell, 0) + b
            if torsion:
                for other in others:
                    torsions[nbrs | other].append((j, torsion))
    return [_table(acc, t, k + 1, field) for acc, t in zip(accs, torsions)]


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
