"""Graded Betti numbers of the face ring, by the subset homology formula.

beta_{i,j} = sum over j-element vertex subsets W of the dimension of reduced
homology in degree j-i-1 of the restriction Delta_W of the complex to W.
This is the oracle everything else is checked against: it sums nonnegative
homology dimensions, so accumulation order cannot matter.

The sweep visits W in ascending order and keeps res[W], the integral
reduced homology of Delta_W (Betti numbers over Q and torsion), as an id
into its list of distinct results; res[{}] is the empty complex.  One rule
removes a vertex u of W, the Mayer-Vietoris split (`_Results.split`).
Delta_W is the union of A = Delta_(W-u) and the star of u, a cone, and they
meet in L, the link of u in Delta_W.  In the reduced sequence (Hatcher,
Algebraic Topology, 2.2)
    ... -> H_k(L) -> H_k(A) -> H_k(Delta_W) -> H_(k-1)(L) -> H_(k-1)(A) -> ...
every map H_k(L) -> H_k(A) is zero when in each degree H_k(L) or H_k(A) is
0, integrally, torsion counted; then 0 -> H_k(A) -> H_k(Delta_W) ->
H_(k-1)(L) -> 0 is exact, and it splits when L is torsion-free.  So res[W]
is res[W-u] with L's Betti numbers one degree up, and A's torsion.  An
isolated u is the case where L is the empty face alone, one more in
reduced degree 0; an acyclic L, a cone among them, leaves res[W-u] as it
is.  W = {u}, where A and L are both the empty face alone, is the base
case, a point.  res[W-u] was visited before; L's result depends on the
complex:
  - on a flag complex L is the restriction to N_W(u), the neighbours of u
    in W (a face F + u is a clique iff F is one inside N(u)): res[N_W(u)];
  - off flag complexes L is the link of u in Delta restricted to N_W(u)
    (`_link_result`), from the same rule one face up.  The link of a face
    sigma restricted to a set s of its neighbours is a simplex, a point's
    result and not memoised, when sigma + s is a face, one byte of the
    sweep's face bitmap (`_faces`, 2^n bytes built in n passes without
    listing faces); else split by its lowest vertex x that splits it, A
    being the same link restricted to s - x and the link of x in it the
    link of sigma + x restricted to the neighbours of sigma + x in s, each
    memoised per sweep in the star record of its face (its memo, the
    facets through it and their union, made once per face); else a core.
    A cone on y splits by any x other than y, as A and x's link are then
    cones on y, both acyclic.
A nonempty W where no vertex splits is a core; only cores are eliminated,
on their maximal masks.  Every induced subgraph of a chordal graph has a
simplicial vertex (Dirac), whose link is a simplex, so a chordal clique
complex has no core; nor has any clique complex of a graph on 6 vertices
(`froberg_exhaustive(6)` meets none).  The table sums the (|W|, result)
counts; torsion gives it over every GF(p).  Everything a sweep keeps is
local to its call: a core is eliminated where the sweep meets it, and no
sweep reads what another computed.

The Froberg sweep takes the extensions of a graph on k vertices by a vertex
v together (`_Lockstep`).  W + v in the extension by N restricts it as in
the extension by N' = N & W, so each pair (W, N') is swept once, at the
radix-3 index tri[W] + tri[N'] (digit 0, 1 or 2 for a vertex outside W, in
W - N', in N').  Extension N is linear iff no W of the base and no pair
(W, N & W) has homology above reduced degree 0 (`_Lockstep.linear`): per
vertex, a pair digit 0 or 1 counts for an N without the vertex and 0 or 2
for an N with it, so k passes of one vertex each OR the 3^k pair flags
into the 2^k extension flags (Yates's method, as in fast subset
convolution: Bjorklund, Husfeldt, Kaski and Koivisto, STOC 2007).
The pair (W, N') is the clique complex of the graph on W + v, fixed by W,
the base edges inside W and N', and so is every value its rule reads:
base[W'] for W' inside W, and pairs whose W' is a proper subset of W.  So
the pairs of one W, its row, are shared by every base with the same edges
inside W: the sweep keeps one `_Results`, so equal results have equal ids
across bases, and a memo of rows under (edges & inside[W]) << k | W, the
base edges inside W in the sweep's edge-bit order, then W, which the edges
miss where a vertex of W is isolated.  Equal keys are equal graphs on W,
hence equal rows, so a later base copies the row instead of sweeping it.
The row of the whole base is not kept: no other base has its edges.  For
the top vertex y of W, the base graph on W is the pair (W - y, N_W(y))
with y named v, so base[W] is read off the row of W - y, which precedes
W's: the lockstep sweeps nothing but pair rows.  No flag complex on 10 or
fewer vertices has torsion (Katzman 2006), so the lockstep carries none:
without torsion a verdict holds over every field, and for a base one of
whose results has torsion it gives none.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, namedtuple
from functools import reduce
from itertools import zip_longest
from operator import or_

from .errors import TooManyVerticesError
from .exactla import GF_DEFAULT, QQ, FieldSpec
from .graphs import maximal_cliques
from .homology import reduced_dims_from_facets, torsion_shift
from .simplicial import Complex, _maximal_masks

DEFAULT_VERTEX_CAP = 20

_Homology = tuple[tuple[int, ...], tuple[tuple[int, int], ...]]  # Betti numbers over Q from degree -1; torsion


class BettiTable(namedtuple("BettiTable", "cells n field torsion", defaults=((),))):
    """Nonzero graded Betti numbers as sorted (i, j, value) cells.

    i is the homological degree (0 for the ring itself, so the only i = 0
    cell is (0, 0, 1)), j the internal degree.  Absent cells are zero.
    `torsion` holds sorted ((|W|, torsion), count) pairs: count is the
    number of restrictions Delta_W of that size with that torsion in their
    integral homology (see homology.reduced_dims_from_facets); it is all
    the table over another field needs.
    """

    __slots__ = ()
    cells: tuple[tuple[int, int, int], ...]
    n: int
    field: FieldSpec
    torsion: tuple[tuple[tuple[int, tuple[tuple[int, int], ...]], int], ...]

    def over(self, field: FieldSpec) -> "BettiTable":
        """The same complex's table over another field."""
        if not self.torsion:  # no torsion: the same table over every field
            return BettiTable(self.cells, self.n, field)
        acc = self.as_dict()
        for (j, torsion), count in self.torsion:
            for k in torsion_shift(torsion, self.field.p):
                acc[j - k, j] -= count
            for k in torsion_shift(torsion, field.p):
                acc[j - k, j] = acc.get((j - k, j), 0) + count
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


class _Results:
    """The distinct results of one sweep, by id, with what the rules read of
    each; id 0 is the empty complex, the result of W = {}."""

    def __init__(self):
        self.values: list[_Homology] = []
        self.ids: dict[_Homology, int] = {}
        self.twisted: list[bool] = []  # by id: torsion
        self.support: list[int] = []  # by id: bit r where reduced degree r - 1 has homology, torsion included; 0 iff acyclic
        self.core([0])  # id 0: the empty subset, a core, eliminated as every core is
        self.point = self.id(((), ()))  # a point's, every acyclic complex's
        # by A << 32 | L, ids: `split`'s id, or None; W = {u}, where A and L
        # are both the empty complex, is the base case: a point
        self.joined: dict[int, int | None] = {0: self.point}

    def id(self, hom: _Homology) -> int:
        dims, torsion = hom
        while dims and not dims[-1]:  # one id per homology value
            dims = dims[:-1]
        hom = dims, torsion
        if hom not in self.ids:
            self.ids[hom] = len(self.values)
            self.values.append(hom)
            self.twisted.append(bool(torsion))
            self.support.append(reduce(or_, [1 << i for i, _ in torsion], sum(1 << r for r, b in enumerate(dims) if b)))
        return self.ids[hom]

    def split(self, a: int, link: int) -> int | None:
        """The result of Delta_W from a, Delta_(W-u)'s, and link, the link
        of u in Delta_W: a with the link's Betti numbers one degree up and
        a's torsion, when the link is torsion-free and no degree has
        homology in both (module docstring); else None."""
        if not self.support[link]:  # acyclic
            return a
        key = a << 32 | link
        if key not in self.joined:
            out = None
            if not self.twisted[link] and not self.support[a] & self.support[link]:
                dims, torsion = self.values[a]
                up = (0, *self.values[link][0])
                out = self.id((tuple(map(sum, zip_longest(dims, up, fillvalue=0))), torsion))
            self.joined[key] = out
        return self.joined[key]

    def core(self, maximal: list[int]) -> int:
        """The id of the homology of the core with these maximal masks."""
        return self.id(reduced_dims_from_facets(maximal))


def _closed(masks, n: int) -> dict[int, int]:
    """Each vertex's closed neighbourhood in the 1-skeleton, both as bits."""
    return {1 << v: reduce(or_, [f for f in masks if f >> v & 1], 1 << v) for v in range(n)}


def _faces(masks, n: int) -> bytes:
    """Byte m is 1 iff the mask m lies in one of the masks: the facets
    marked, then for each vertex v each byte at an index with bit v ORed
    into the index without it, in one pass over the bytes as one integer."""
    marked = bytearray(1 << n)
    for f in masks:
        marked[f] = 1
    faces = int.from_bytes(marked, "little")
    for v in range(n):
        half = 1 << v
        with_v = int.from_bytes((bytes(half) + b"\x01" * half) * (1 << n - v - 1), "little")
        faces |= (faces & with_v) >> 8 * half
    return faces.to_bytes(1 << n, "little")


def _link_result(sigma: int, s: int, face: bytes, stars: dict, results: _Results) -> int:
    """The id of the restriction to s, a set of neighbours of the face
    sigma, of sigma's link: a point's when face[sigma | s], a simplex, else
    split by its lowest vertex x where the split holds, the link of x in it
    being the link of sigma + x restricted to the neighbours of sigma + x
    in s, else a core (module docstring).  stars[tau] is the record (memo
    by s, facets through tau, their union) of the face tau; sigma has one,
    and sigma + x gets one here from sigma's facets the first time a split
    reads it."""
    if not s:
        return 0
    if face[sigma | s]:  # a simplex, not memoised: most are met once
        return results.point
    memo, fs, _ = stars[sigma]
    rid = memo.get(s)
    if rid is not None:
        return rid
    rest = s
    while rest:
        x = rest & -rest
        a = _link_result(sigma, s ^ x, face, stars, results)
        star = stars.get(sigma | x)
        if star is None:
            fx = [f for f in fs if f & x]
            star = stars[sigma | x] = ({}, fx, reduce(or_, fx))
        rid = results.split(a, _link_result(sigma | x, star[2] & s ^ x, face, stars, results))
        if rid is not None:
            break
        rest ^= x
    else:
        rid = results.core(_maximal_masks([f & s for f in fs]))
    memo[s] = rid
    return rid


def _subset_results(masks, n: int, results: _Results) -> array:
    """res[W], as ids into results, for every W in [0, 2^n) of the complex
    the masks span (module docstring), a clique complex iff they are the
    maximal cliques of its 1-skeleton."""
    closed = _closed(masks, n)
    flag = maximal_cliques([closed[1 << v] ^ 1 << v for v in range(n)]) == sorted(masks)
    # off flag complexes: the face bitmap, and each vertex's star record,
    # its link's results by the vertex set it is restricted to, the facets
    # through it and their union
    face = None if flag else _faces(masks, n)
    stars = {} if flag else {u: ({}, [f for f in masks if f & u], union) for u, union in closed.items()}
    split = results.split
    res = array("I", bytes(4 << n))  # res[{}] is 0, the empty complex
    for w in range(1, len(res)):
        rest = w
        r = None
        while rest:
            u = rest & -rest
            near = closed[u] & w ^ u
            # on a flag complex the link of u is the restriction to N_W(u)
            r = split(res[w ^ u], res[near] if flag else _link_result(u, near, face, stars, results))
            if r is not None:
                break
            rest ^= u
        res[w] = results.core(_maximal_masks(map(w.__and__, masks))) if r is None else r
    return res


def graded_betti(c: Complex, field: FieldSpec = GF_DEFAULT, n_cap: int = DEFAULT_VERTEX_CAP) -> BettiTable:
    """Exact graded Betti numbers of the face ring of c over the field.

    Sweeps all vertex subsets; cost is 2^n times a small homology problem,
    so n is capped (default 20).  The sweep computes integral homology, so
    the table over any other field follows from the result by `over`.
    """
    if c.n > n_cap:
        raise TooManyVerticesError(f"{c.n} vertices exceeds the sweep cap {n_cap}")
    if 4 << c.n > sys.maxsize:  # res, 4 bytes a subset, is larger than any object can be
        raise TooManyVerticesError(f"{c.n} vertices: the sweep's 2^{c.n} subsets exceed the address space")
    results = _Results()
    res = _subset_results(c.facets, c.n, results)
    acc: Counter = Counter()
    torsion: Counter = Counter()
    for (j, rid), count in Counter(zip(map(int.bit_count, range(len(res))), res)).items():
        dims, tors = results.values[rid]
        for r_idx, b in enumerate(dims):  # reduced degree r_idx - 1 adds at i = j - r_idx
            acc[j - r_idx, j] += b * count
        if tors:
            torsion[j, tors] += count
    cells = tuple(sorted((i, j, v) for (i, j), v in acc.items() if v))
    return BettiTable(cells, c.n, QQ, tuple(sorted(torsion.items()))).over(field)


def _pair_row(w: int, closed: dict, base: array, pairs: array, sweep: "_Lockstep") -> array:
    """The result of W + v in the extensions of the base graph by v = 1 << k
    with neighbours N, for each N' = N & W in the submasks of W, descending:
    the split of `_subset_results` on the extension N'.  Its vertices'
    links, tried in this order, are
      - of v: the base's N';
      - of u in W - N': the base's N_W(u);
      - of u in N': the pair (N_W(u), N' & N_W(u)).
    W - u + v is the pair (W - u, N' - u), and W + v - v the base's W.  Every
    pair looked up is (W', N'') for a W' inside W minus a vertex, at
    pairs[tri[W'] + tri[N'']], so rows filled in ascending order of W hold
    them.  A core is eliminated on the maximal cliques of the graph on W + v."""
    k = sweep.k
    tri = sweep.tri
    results = sweep.results
    split = results.split
    row = array("I", bytes(4 << w.bit_count()))
    nbrs = w
    for slot in range(len(row)):
        r = split(base[w], base[nbrs])
        if r is None:
            i = tri[w] + tri[nbrs]
            rest = w
            while rest:
                u = rest & -rest
                near = closed[u] & w ^ u
                if u & nbrs:
                    r = split(pairs[i - 2 * tri[u]], pairs[tri[near] + tri[near & nbrs]])
                else:
                    r = split(pairs[i - tri[u]], base[near])
                if r is not None:
                    break
                rest ^= u
            else:
                # the graph on W + v; a vertex outside it is isolated, a clique alone
                adj = [closed[1 << u] & w ^ 1 << u | (nbrs >> u & 1) << k if w >> u & 1 else 0 for u in range(k)]
                r = results.core([c for c in maximal_cliques(adj + [nbrs]) if c & (w | 1 << k)])
        row[slot] = r
        nbrs = nbrs - 1 & w
    return row


def _pair_results(adj: list[int], sweep: "_Lockstep") -> tuple[array, array]:
    """base[W], res[W] of the base graph with adjacency masks `adj`, and
    each pair (W, N') of it at tri[W] + tri[N'] (module docstring): base[W]
    read off the row of W less its top vertex, and each row the memo's, by
    W and the base edges inside it, or `_pair_row`'s; a row of W short of
    the whole base is stored for later bases."""
    k = sweep.k
    closed = {1 << v: row | 1 << v for v, row in enumerate(adj)}
    edges = sum(1 << b for b, (u, x) in enumerate(sweep.edges) if closed[u] & x)
    memo, inside, slots, tri = sweep.memo, sweep.inside, sweep.slots, sweep.tri
    whole = (1 << k) - 1
    base = array("I", bytes(4 << k))  # base[{}] is 0, the empty complex
    pairs = array("I", bytes(4 * 3**k))
    for w in range(whole + 1):
        if w:
            top = w.bit_length() - 1
            base[w] = pairs[tri[w ^ 1 << top] + tri[adj[top] & w]]
        key = (edges & inside[w]) << k | w
        row = memo.get(key)
        if row is None:
            row = _pair_row(w, closed, base, pairs, sweep)
            if w != whole:  # no later base shares the whole vertex set's edges
                memo[key] = row
        for i, r in zip(slots[w], row):
            pairs[i] = r
    return base, pairs


class _Lockstep:
    """The Froberg sweep's linearity verdicts for the extensions of base
    graphs on k vertices (module docstring), with what the bases share: the
    pair index tri[m], the sum over the vertices of m of 3^vertex; one
    `_Results`, so an id means one homology value across the sweep; and
    the memo of pair rows, by W and the base edges inside W."""

    def __init__(self, k: int):
        self.k = k
        self.tri = [0]
        for vertex in range(k):
            self.tri += [t + 3**vertex for t in self.tri]
        # the base edges (u, x) as bits, in the order of the pairs (i, j),
        # i < j; inside[w] has the bits of the edges inside w
        self.edges = [(1 << i, 1 << j) for i in range(k) for j in range(i + 1, k)]
        self.inside = [sum(1 << b for b, (u, x) in enumerate(self.edges) if w & u and w & x) for w in range(1 << k)]
        # slots[w]: the pair indices tri[w] + tri[N'] of w's row, N' descending
        self.slots = []
        for w in range(1 << k):
            row = [w]
            while row[-1]:
                row.append(row[-1] - 1 & w)
            self.slots.append([self.tri[w] + self.tri[nbrs] for nbrs in row])
        self.results = _Results()
        self.memo: dict[int, array] = {}

    def linear(self, adj: list[int]) -> list[bool] | None:
        """By the neighbour set N of a vertex v = k, whether the clique
        complex of the extension of the graph with adjacency masks `adj` by
        v has a linear resolution, the zero ideal counting as linear; or
        None if a result has torsion, which no flag complex on 10 or fewer
        vertices has (Katzman 2006).  By Hochster's formula it is linear iff
        no restriction (the base's W, each pair (W, N & W)) has homology
        above reduced degree 0: H_0 lands on the strand j = i + 1 of the
        non-edges, every higher degree off it.  Without torsion that holds
        over every field."""
        results = self.results
        base, pairs = _pair_results(adj, self)
        # the pair (W, {}) is W plus an isolated v, with base[W]'s torsion
        if any(map(results.twisted.__getitem__, pairs)):
            return None
        support = results.support
        high = [support[r] >> 2 for r in pairs]  # homology above reduced degree 0
        # every extension has the base's W and the pair ({}, {}), at index 0
        high[0] |= any(support[r] >> 2 for r in base)
        for _ in range(self.k):  # fold the top ternary digit into the lowest binary one
            third = len(high) // 3
            zero = high[:third]
            folded = [0] * (2 * third)
            folded[::2] = map(or_, zero, high[third : 2 * third])
            folded[1::2] = map(or_, zero, high[2 * third :])
            high = folded
        return [not h for h in high]


class ResolutionShape(namedtuple("ResolutionShape", "kind degrees betti", defaults=(None, None))):
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

    __slots__ = ()
    kind: str
    degrees: tuple[int, ...] | None
    betti: tuple[int, ...] | None

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
