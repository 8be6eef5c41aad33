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
sweep reads what another computed.  `graded_betti` numbers the vertices by
ascending star score (`homology._star_scores`, which also picks homology's
apex) over the facets, ties in label order, so each W and each link
restriction tries first its vertex of smallest star, whose link is most
often a simplex or memoised.  No table depends on the numbering: it counts
results by |W| and torsion by (|W|, torsion), and a core is a W that no
vertex splits, in whatever order they are tried.

The Froberg sweep (`_clique_flags`) takes every graph on n vertices at
once.  The restriction of a graph to W is fixed by W and the edges inside
W, so each graph on each W is swept once, in ascending order of W, its
result's id kept under (edges inside W) << n | W, the edges as bits in the
lexicographic order of the pairs (i, j), i < j.  Its result is the split
above: A is the graph on W - u and u's link the graph on N_W(u), both swept
before; the top vertex of W is tried first, its link's key being at hand,
then the others ascending, each one's neighbour set read from a table by
its edges, and a graph where no vertex splits is a core, eliminated on its
maximal cliques.  The graphs on all n vertices, most of the sweep's, are
split by vertex 0 in blocks: its edges are the low n - 1 bits of the edge
mask, so the graphs with one base, the same graph on 1 .. n-1, fill one
block of 2^(n-1) own bytes, read off one table per result of A by the
link's result, built over the ids of the smaller W.  Only where vertex 0
does not split, 6,283 of 32,768 graphs at n = 6, are the other vertices
tried one graph at a time, then a core.  A graph's flags say whether some
restriction has homology above reduced degree 0 (bit 0), torsion (bit 1)
or is not chordal (bit 2).  Isolated vertices change none of them, so a
graph on W has the flags of the graph on all n vertices with its edges, and
only those keep own bits, in planes of 2^C(n,2) bits by edge mask: bits 0
and 1 from their results, and bit 2, from planes of the edges, for an edge
and no simplicial vertex, its neighbours pairwise adjacent, but isolated
ones.  ORing each plane, for each vertex u in turn, with its copy with u's
edges deleted gives each graph the OR over its induced subgraphs
(`_induced_or`); a graph is chordal iff each of them has a simplicial
vertex (Dirac 1961).  A clique complex has a linear resolution iff bit 0
is clear, by Hochster's formula: H_0 lands on the strand j = i + 1 of the
non-edges, every higher degree off it; without torsion that holds over
every field, and no flag complex on 10 or fewer vertices has torsion
(Katzman 2006).  Froberg's theorem is that bits 0 and 2 agree.  The memo
holds the ids of the graphs on smaller W, 7,301 at n = 6.
"""

from __future__ import annotations

from array import array
from collections import Counter, namedtuple
from functools import reduce
from itertools import combinations, zip_longest
from operator import or_

from .errors import TooManyVerticesError
from .exactla import GF_DEFAULT, FieldSpec
from .graphs import maximal_cliques
from .homology import _star_scores, reduced_dims_from_facets, torsion_shift
from .simplicial import Complex, _maximal_masks, face_masks

VERTEX_CAP = 20


def _check_cap(n: int) -> None:
    """The sweep cap's one refusal: n above VERTEX_CAP, before anything is built."""
    if n > VERTEX_CAP:
        raise TooManyVerticesError(f"{n} vertices exceeds the sweep cap {VERTEX_CAP}")


_Homology = tuple[tuple[int, ...], tuple[tuple[int, int], ...]]  # Betti numbers over Q from degree -1; torsion


class BettiTable(namedtuple("BettiTable", "cells n field torsion", defaults=((),))):
    """Nonzero graded Betti numbers as sorted (i, j, value) cells.

    i is the homological degree (0 for the ring itself, so the only i = 0
    cell is (0, 0, 1)), j the internal degree.  Absent cells are zero.
    `torsion` holds sorted ((|W|, torsion), count) pairs: count is the
    number of restrictions Delta_W of that size with that torsion in their
    integral homology (see homology.reduced_dims_from_facets), whose
    factors divisible by the field's characteristic only add to the cells.
    """

    __slots__ = ()
    cells: tuple[tuple[int, int, int], ...]
    n: int
    field: FieldSpec
    torsion: tuple[tuple[tuple[int, tuple[tuple[int, int], ...]], int], ...]

    @property
    def pdim(self) -> int:
        """Projective dimension: the largest homological degree present."""
        return max(a for a, _, _ in self.cells)

    def total(self, i: int) -> int:
        return sum(v for a, _, v in self.cells if a == i)

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


def _subset_results(masks, n: int) -> tuple[array, _Results]:
    """res[W], as ids into the returned results, for every W in [0, 2^n) of
    the complex the masks span (module docstring), a clique complex iff
    they are the maximal cliques of its 1-skeleton."""
    results = _Results()
    # by vertex, as a bit: the facets through it, and their union, its
    # closed neighbourhood in the 1-skeleton
    through = {1 << v: [f for f in masks if f >> v & 1] for v in range(n)}
    closed = {u: reduce(or_, fs, u) for u, fs in through.items()}
    flag = maximal_cliques([closed[1 << v] ^ 1 << v for v in range(n)]) == sorted(masks)
    # off flag complexes: the face bitmap, and each vertex's star record,
    # its link's results by the vertex set it is restricted to, the facets
    # through it and their union
    face = None if flag else _faces(masks, n)
    stars = {} if flag else {u: ({}, fs, closed[u]) for u, fs in through.items()}
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
    return res, results


def graded_betti(c: Complex, field: FieldSpec = GF_DEFAULT) -> BettiTable:
    """Exact graded Betti numbers of the face ring of c over the field.

    Sweeps all vertex subsets; cost is 2^n times a small homology problem,
    so n is at most VERTEX_CAP (20).  Each integral result adds its Betti
    numbers over Q, and its torsion's shift over the field, to the cells.
    """
    _check_cap(c.n)
    # vertex i is the i-th by ascending star score, ties in label order (module docstring)
    order = sorted(range(c.n), key=_star_scores(c.facets, c.n).__getitem__)
    res, results = _subset_results([sum(1 << i for i, v in enumerate(order) if f >> v & 1) for f in c.facets], c.n)
    acc: Counter = Counter()
    torsion: Counter = Counter()
    for (j, rid), count in Counter(zip(map(int.bit_count, range(len(res))), res)).items():
        dims, tors = results.values[rid]
        for r_idx, b in enumerate(dims):  # reduced degree r_idx - 1 adds at i = j - r_idx
            acc[j - r_idx, j] += b * count
        if tors:
            torsion[j, tors] += count
            for k in torsion_shift(tors, field.p):
                acc[j - k, j] += count
    cells = tuple(sorted((i, j, v) for (i, j), v in acc.items() if v))
    return BettiTable(cells, c.n, field, tuple(sorted(torsion.items())))


def _clique_flags(n: int) -> bytearray:
    """By edge mask, its bits the pairs (i, j), i < j, in lexicographic
    order, the flags of each graph on n vertices: bit 0 if a restriction of
    its clique complex has homology above reduced degree 0, bit 1 if one has
    torsion, bit 2 if an induced subgraph, itself included, is not chordal:
    its own bits ORed over its induced subgraphs (module docstring)."""
    pairs = list(combinations(range(n), 2))
    # edge masks are shifted up by n, so that a graph's key is its edges | W.
    # inside[w]: the edges inside w; mine[u]: the edges of u; adj[u]: u's
    # neighbour set by the edges of u in a graph's mask
    inside = [sum(1 << n + b for b, (i, j) in enumerate(pairs) if w >> i & w >> j & 1) for w in range(1 << n)]
    mine = [sum(1 << n + b for b, pair in enumerate(pairs) if u in pair) for u in range(n)]
    adj = [{e: sum(1 << (i ^ j ^ u) for b, (i, j) in enumerate(pairs) if e >> n + b & 1) for e in face_masks([m])} for u, m in enumerate(mine)]
    results = _Results()
    split, support, twisted = results.split, results.support, results.twisted
    whole = (1 << n) - 1
    memo = {0: 0}  # result ids by edges | W, W a proper subset; {} is the empty complex
    size = 1 << len(pairs)
    own = bytearray(size)  # by edge mask: own bits 0 and 1 of the graph on all n vertices

    def bits(r):
        """The own bits of the result r, or 255 where the split failed."""
        return 255 if r is None else (support[r] > 3) | twisted[r] << 1

    def fallback(e, w, tries):
        """The result of the graph with edges e on w whose first vertex
        did not split: the first of the vertices tries that splits, else
        a core, eliminated on its maximal cliques."""
        for u in tries:
            near = adj[u][e & mine[u]]
            r = split(memo[e & inside[w ^ 1 << u] | w ^ 1 << u], memo[e & inside[near] | near])
            if r is not None:
                return r
        return results.core([c for c in maximal_cliques([adj[u][e & mine[u]] for u in range(n)]) if c & w])

    for w in range(1, whole):
        y = w.bit_length() - 1
        rest = w ^ 1 << y
        lower = [u for u in range(y) if w >> u & 1]
        # each neighbour set N of y in W: the edges from y to N, those inside N, and N
        links = [(edges, inside[nbrs], nbrs) for edges, nbrs in adj[y].items() if nbrs & rest == nbrs]
        for base in face_masks([inside[rest]]):  # the graph on W - y
            a = memo[base | rest]
            for edges, near_edges, nbrs in links:
                r = split(a, memo[base & near_edges | nbrs])
                memo[base | edges | w] = fallback(base | edges, w, lower) if r is None else r
    # the graphs on all n vertices, by vertex 0, whose edges are the low
    # n - 1 bits of the edge mask: each graph on 1 .. n-1, the base, owns
    # the block of 2^(n-1) masks that add each neighbour set N of 0, in
    # order.  rows[a][l] is the own bits of the split of A's result a by
    # the link's l, for each id l of a proper subset (the splits here add
    # ids, none of them a link's), or 255 where it fails
    if n:  # at n = 0 own[0] stays 0, the empty complex's bits
        rest = whole ^ 1
        zero = [(inside[nbrs], nbrs) for nbrs in range(0, whole + 1, 2)]
        count = len(support)
        rows = {}
        for base in face_masks([inside[rest]]):
            a = memo[base | rest]
            if a not in rows:
                rows[a] = bytes(map(bits, map(split, [a] * count, range(count))))
            ids = [memo[base & near_edges | nbrs] for near_edges, nbrs in zero]
            own[base >> n : (base >> n) + len(zero)] = bytes(map(rows[a].__getitem__, ids))
        at = own.find(255)
        while at >= 0:  # then vertex 0 did not split: the fallback
            own[at] = bits(fallback(at << n, whole, range(1, n)))
            at = own.find(255, at + 1)
    del memo
    # bits 0 and 1 as planes, read as base-2 numerals, the top edge mask first
    planes = [int(own.translate(bytes(48 | i >> k & 1 for i in range(256)))[::-1], 2) for k in (0, 1)]
    # by pair, the plane of the edge masks that hold it: a byte pattern
    # repeated, read as one integer
    units = [b"\xaa", b"\xcc", b"\xf0"] + [bytes(1 << b - 3) + b"\xff" * (1 << b - 3) for b in range(3, len(pairs))]
    edge = {pair: int.from_bytes(u * max(1, size // 8 // len(u)), "little") & (1 << size) - 1 for pair, u in zip(pairs, units)}
    # bit 2: an edge, and no simplicial vertex but isolated ones (Dirac 1961)
    simplicial = 0
    for u in range(n):
        nbr = {v: edge[min(u, v), max(u, v)] for v in range(n) if v != u}
        apart = reduce(or_, [nbr[v] & nbr[x] & ~edge[v, x] for v, x in combinations(nbr, 2)], 0)
        simplicial |= reduce(or_, nbr.values(), 0) & ~apart
    planes.append((1 << size) - 2 & ~simplicial)
    digits = bytes.maketrans(b"01", b"\0\1")  # a plane's base-2 numeral as bytes 0 and 1
    flags = sum(int.from_bytes(f"{p:0{size}b}".encode().translate(digits), "big") << k for k, p in enumerate(_induced_or(planes, edge)))
    return bytearray(flags.to_bytes(size, "little"))


def _induced_or(planes: list[int], edge: dict[tuple[int, int], int]) -> list[int]:
    """Planes of bits by edge mask ORed over induced subgraphs: bit e
    becomes the OR of the bits at e & (the edges inside W) over every vertex
    set W.  edge holds, by pair in the order of the mask's bits, the plane
    of the masks that hold it.  For each vertex u in turn, each plane with
    u's edges deleted, each edge b of u projected out by copying the bit at
    e with b cleared onto e, is ORed into it."""
    for u in set().union(*edge):
        cut = planes
        for b, (pair, holds) in enumerate(edge.items()):
            if u in pair:
                cut = [low | low << (1 << b) for low in (c & ~holds for c in cut)]
        planes = [p | c for p, c in zip(planes, cut)]
    return planes


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
