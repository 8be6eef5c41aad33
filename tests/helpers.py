"""Shared test utilities: independent brute-force oracles and random inputs.

Everything here recomputes quantities from first principles (subset scans,
list-based polynomial expansion, dense integral elimination over Q)
precisely so the library is never checked against itself.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import comb, gcd

from srbetti import BettiTable, Complex, Graph, complex_from_facets, graph_from_edges


def bits(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


# ---------------------------------------------------------------------------
# complexes

def random_complex(rnd: random.Random, max_n: int = 7, max_facets: int = 6, max_size: int | None = None) -> Complex:
    """Random facets drawn from 2 to max_n vertices, redrawn until the
    complex is not a simplex, whose face ideal is zero.  Facets of at most
    max_size vertices give more homology and more general shapes."""
    while True:
        pool = [chr(ord("a") + i) for i in range(rnd.randint(2, max_n))]
        facets = []
        for _ in range(rnd.randint(1, max_facets)):
            facets.append(rnd.sample(pool, rnd.randint(1, min(len(pool), max_size or len(pool)))))
        c = complex_from_facets(facets)
        if len(c.facets) > 1:
            return c


def cross_polytope(r: int) -> Complex:
    """Boundary of the r-dimensional cross-polytope: minimal non-faces are the
    r disjoint pairs {2k-1, 2k}, a complete intersection of quadrics."""
    labels = [str(i) for i in range(1, 2 * r + 1)]
    facets = []
    for pick in range(1 << r):
        facets.append([labels[2 * k + ((pick >> k) & 1)] for k in range(r)])
    return complex_from_facets(facets)


def cyclic_polytope_boundary(n: int, d: int) -> Complex:
    """Boundary of the cyclic d-polytope on n vertices 0, ..., n-1.  By
    Gale's evenness condition its facets are the d-subsets S such that
    every two vertices outside S are separated by an even number of
    vertices of S."""
    facets = []
    for s in combinations(range(n), d):
        outside = sorted(set(range(n)) - set(s))
        if all(sum(i < v < j for v in s) % 2 == 0 for i, j in combinations(outside, 2)):
            facets.append([str(v) for v in s])
    return complex_from_facets(facets)


def join(c1: Complex, c2: Complex) -> Complex:
    """The join of complexes on disjoint label sets: its faces are the
    unions of a face of c1 and a face of c2, so its facets are the unions
    of a facet of each."""
    if set(c1.labels) & set(c2.labels):
        raise ValueError("the factors of a join share a vertex label")
    faces1, faces2 = ([[c.labels[v] for v in bits(f)] for f in c.facets] for c in (c1, c2))
    return complex_from_facets([f + g for f in faces1 for g in faces2])


def suspension(c: Complex) -> Complex:
    """The join with two points "north" and "south": homology shifts up one
    degree, so rp2's torsion moves from the boundary map 2 to 3."""
    return join(c, complex_from_facets([["north"], ["south"]]))


def flag_subdivision(c: Complex, budget: int) -> Complex | None:
    """A flag complex from the 2-dimensional complex c by at most `budget`
    stellar edge subdivisions, or None.  Depth first: the first empty
    triangle (three edges, no face) in lexicographic order of labels gets
    one of its edges ab, in order, subdivided by a new vertex x: each
    triangle abc becomes axc and xbc.  The new labels are x1, x2, ....  A
    surface other than the boundary of a tetrahedron with no empty triangle
    is flag: a larger clique needs every triangle inside it."""
    triangles = [frozenset(c.labels[v] for v in bits(f)) for f in c.facets]
    return _flag_search(triangles, budget, 1)


def _flag_search(triangles: list[frozenset], budget: int, fresh: int) -> Complex | None:
    edges = {pair for t in triangles for pair in combinations(sorted(t), 2)}
    vertices = sorted(set().union(*triangles))
    spanned = (t for t in combinations(vertices, 3) if set(combinations(t, 2)) <= edges)
    empty = next((t for t in spanned if frozenset(t) not in triangles), None)
    if empty is None:
        return complex_from_facets([sorted(t) for t in triangles])
    for a, b in combinations(empty, 2) if budget else ():
        x = f"x{fresh}"
        subdivided = [t for t in triangles if not {a, b} <= t]
        for t in triangles:
            if {a, b} <= t:
                subdivided += [t - {b} | {x}, t - {a} | {x}]
        found = _flag_search(subdivided, budget - 1, fresh + 1)
        if found is not None:
            return found
    return None


def alexander_dual(c: Complex) -> tuple[Complex, int]:
    """The Alexander dual of c, whose faces are the complements of the
    non-faces of c, and the number of vertices of c that lie in every
    minimal non-face of c.

    The facets of the dual are the complements of the minimal non-faces,
    so those vertices lie in no face of the dual: the dual is built on the
    other vertices, and each of them adds a variable x with x in the face
    ideal, a factor k[x]/(x) of the face ring over all of c's vertices,
    whose Betti polynomial is 1 + s t (see `koszul_table`)."""
    non_faces = brute_minimal_non_faces(c)
    everywhere = frozenset(c.labels).intersection(*non_faces)
    facets = [sorted(set(c.labels) - nf) for nf in non_faces]
    if not any(facets):  # c is the boundary of its simplex; the dual is {empty face}
        return Complex((), (0,)), len(everywhere)
    return complex_from_facets(facets), len(everywhere)


def koszul_table(k: int, field) -> BettiTable:
    """The table of k[x_1..x_k]/(x_1..x_k), resolved by the Koszul complex:
    Betti polynomial (1 + s t)^k."""
    return BettiTable(tuple((i, i, comb(k, i)) for i in range(k + 1)), k, field)


def betti_product(t1: BettiTable, t2: BettiTable) -> dict[tuple[int, int], int]:
    """The coefficients of B_1(s, t) * B_2(s, t), keyed (i, j), where a
    table's Betti polynomial is B(s, t) = sum of beta_{i,j} s^i t^j."""
    out: dict[tuple[int, int], int] = {}
    for i1, j1, v1 in t1.cells:
        for i2, j2, v2 in t2.cells:
            out[i1 + i2, j1 + j2] = out.get((i1 + i2, j1 + j2), 0) + v1 * v2
    return out


def bumped_table(table: BettiTable, k: int) -> BettiTable:
    """The table with its k-th cell raised by one, for mutation checks."""
    cells = list(table.cells)
    i, j, v = cells[k]
    cells[k] = (i, j, v + 1)
    return BettiTable(tuple(cells), table.n, table.field)


def brute_face_masks(c: Complex) -> set[int]:
    """Every subset of the vertex set that sits inside some facet."""
    out = set()
    for mask in range(1 << c.n):
        if any(mask & f == mask for f in c.facets):
            out.add(mask)
    return out


def brute_reduced_dims(faces: set[int], p: int | None = None) -> list[int]:
    """Reduced Betti numbers (b_{-1}, ..., b_{top-1}) over GF(p), or over Q
    for p None, of the complex whose faces, the empty face included, are
    `faces`; top is the largest face cardinality.

    Read off the dense matrices of the full augmented chain complex, ranked
    by `frac_rank` or `modp_rank`.  A k-vertex face is a chain in reduced
    degree k-1.
    """
    top = max(m.bit_count() for m in faces)
    by_card: list[list[int]] = [[] for _ in range(top + 1)]
    for m in sorted(faces):
        by_card[m.bit_count()].append(m)
    # ranks[k]: the boundary from k-vertex faces to (k-1)-vertex faces
    ranks = [0] * (top + 2)
    for k in range(1, top + 1):
        rows, cols = by_card[k - 1], by_card[k]
        row_of = {m: i for i, m in enumerate(rows)}
        dense = [[0] * len(cols) for _ in rows]
        for col, m in enumerate(cols):
            for pos, v in enumerate(bits(m)):
                dense[row_of[m ^ (1 << v)]][col] = (-1) ** pos
        ranks[k] = frac_rank(dense) if p is None else modp_rank(dense, p)
    return [len(by_card[k]) - ranks[k] - ranks[k + 1] for k in range(top + 1)]


def brute_betti(c: Complex, p: int | None = None) -> dict[tuple[int, int], int]:
    """Graded Betti numbers over GF(p), or over Q for p None, by Hochster's
    formula, from scratch.

    For every vertex subset W, cones included and nothing cached, the reduced
    homology of the restriction comes from `brute_reduced_dims`.  Reduced
    degree k-1 lands at beta_{|W|-k, |W|}.
    """
    faces = brute_face_masks(c)
    table: dict[tuple[int, int], int] = {}
    for w in range(1 << c.n):
        j = w.bit_count()
        dims = brute_reduced_dims({m for m in faces if m & w == m}, p)
        for k, dim in enumerate(dims):
            if dim:
                table[(j - k, j)] = table.get((j - k, j), 0) + dim
    return table


def koszul_betti(c: Complex, p: int | None = None) -> dict[tuple[int, int], int]:
    """Graded Betti numbers over GF(p), or over Q for p None, as Tor of the
    face ring and the field, from the Koszul complex K(x; k[Delta]): no
    restriction and no homology of a complex enters.

    beta_{i,j} sums dim H_i of the Koszul complex in degree alpha over the
    multidegrees alpha in {0, 1, 2}^n with |alpha| = j.  In homological
    degree i its basis is e_U (x) x^(alpha - U), over the i-sets U inside
    supp alpha for which supp(alpha - U) is a face; otherwise the monomial
    is zero in the face ring.  d sends e_U (x) m to the sum over u in U of
    (-1)^(the elements of U below u) e_(U-u) (x) x_u m, a term that is zero
    when supp(x_u m) is not a face.  A face ring's Betti numbers sit in
    squarefree degrees, so every alpha with a 2 must add nothing.
    """
    faces = brute_face_masks(c)
    table: dict[tuple[int, int], int] = {}
    for alpha in product(range(3), repeat=c.n):
        one = sum(1 << v for v, a in enumerate(alpha) if a == 1)
        two = sum(1 << v for v, a in enumerate(alpha) if a == 2)
        if two not in faces:  # x^(alpha - U) is zero for every U
            continue
        support = one | two
        basis: list[list[int]] = [[] for _ in range(support.bit_count() + 1)]
        for u in range(support + 1):
            if u & support == u and support ^ u & one in faces:
                basis[u.bit_count()].append(u)
        # ranks[i]: the differential from degree i to degree i - 1
        ranks = [0] * (len(basis) + 1)
        for i in range(1, len(basis)):
            row_of = {u: r for r, u in enumerate(basis[i - 1])}
            dense = [[0] * len(basis[i]) for _ in basis[i - 1]]
            for col, u in enumerate(basis[i]):
                for pos, v in enumerate(bits(u)):
                    if u ^ 1 << v in row_of:
                        dense[row_of[u ^ 1 << v]][col] = (-1) ** pos
            ranks[i] = frac_rank(dense) if p is None else modp_rank(dense, p)
        j = sum(alpha)
        for i, cell in enumerate(basis):
            dim = len(cell) - ranks[i] - ranks[i + 1]
            if dim:
                table[i, j] = table.get((i, j), 0) + dim
    return table


def brute_dominated_vertices(faces: set[int], w: int) -> set[int]:
    """The vertices u of w (as bits) whose link in the restriction to w is
    a cone: some other vertex u' of w has F + u' a face for every face F
    through u inside w."""
    out = set()
    for u in bits(w):
        through = [f for f in faces if f & w == f and (f >> u) & 1]
        for other in bits(w):
            if other != u and all(f | 1 << other in faces for f in through):
                out.add(1 << u)
                break
    return out


def brute_removable_by_link(faces: set[int], w: int) -> set[int]:
    """The vertices u of w (as bits) whose link in the restriction to w is
    empty (the faces F inside w - u with F + u a face are only the empty
    one) or acyclic over Q, GF(2) and GF(3).  Without torsion at another
    prime, as in every flag complex the tests use, that is acyclic over Z."""
    out = set()
    for u in bits(w):
        link = {f ^ 1 << u for f in faces if f & w == f and (f >> u) & 1}
        if link == {0} or not any(any(brute_reduced_dims(link, p)) for p in (None, 2, 3)):
            out.add(1 << u)
    return out


@lru_cache(maxsize=4096)
def brute_integral_support(faces: frozenset[int]) -> tuple[int, bool]:
    """Which reduced degrees of the complex whose faces, the empty face
    included, are `faces` have integral homology, read off its homology
    over Q, GF(2) and GF(3), and whether it has torsion at 2 or 3: bit r
    of the mask for reduced degree r - 1.

    By universal coefficients GF(p) counts in degree k the free rank b_k,
    plus t_k, the cyclic summands of p-power order in degree k, plus
    t_(k-1); reduced degree -1 has no torsion, so t_k follows degree by
    degree from the bottom."""
    free = brute_reduced_dims(set(faces))
    support = sum(1 << r for r, b in enumerate(free) if b)
    twisted = False
    for p in (2, 3):
        t = 0
        for r, (b, over_p) in enumerate(zip(free, brute_reduced_dims(set(faces), p))):
            t = over_p - b - t
            support |= bool(t) << r
            twisted |= bool(t)
    return support, twisted


def brute_split_vertices(faces: set[int], w: int) -> set[int]:
    """The vertices u of w (as bits) where the Mayer-Vietoris split applies
    to the restriction to w, computed from its faces: the link L of u is
    torsion-free and in no degree both L and the restriction A to w - u
    have integral homology (see `brute_integral_support`; no torsion at
    primes above 3, as in every complex the tests use)."""
    out = set()
    for u in bits(w):
        rest = frozenset(f for f in faces if f & w == f and not f >> u & 1)
        link = frozenset(f ^ 1 << u for f in faces if f & w == f and f >> u & 1)
        (held, _), (linked, twisted) = brute_integral_support(rest), brute_integral_support(link)
        if not twisted and not held & linked:
            out.add(1 << u)
    return out


def brute_minimal_non_faces(c: Complex) -> set[frozenset[str]]:
    """Direct scan over all subsets: non-faces all of whose proper subsets are faces."""
    faces = brute_face_masks(c)
    out = set()
    for mask in range(1 << c.n):
        if mask in faces:
            continue
        if all((mask ^ (1 << v)) in faces for v in bits(mask)):
            out.add(frozenset(c.labels[v] for v in bits(mask)))
    return out


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def h_by_expansion(f_entries: tuple[int, ...]) -> list[int]:
    """h-vector as coefficients of sum_i f_{i-1} t^i (1-t)^(d-i), via list arithmetic."""
    d = len(f_entries) - 1
    acc = [0] * (d + 1)
    for i in range(d + 1):
        term = [1]
        for _ in range(d - i):
            term = poly_mul(term, [1, -1])
        term = [0] * i + [f_entries[i] * c for c in term]
        for k, c in enumerate(term):
            acc[k] += c
    return acc


def count_monomials(c: Complex, s: int) -> int:
    """Degree-s monomials whose support is a face, by explicit enumeration."""
    if s == 0:
        return 1
    count = 0
    for combo in combinations_with_replacement(range(c.n), s):
        support = 0
        for v in combo:
            support |= 1 << v
        if any(support & f == support for f in c.facets):
            count += 1
    return count


# ---------------------------------------------------------------------------
# graphs

def random_graph(rnd: random.Random, n: int, p: float = 0.5) -> Graph:
    labels = [str(i + 1) for i in range(n)]
    edges = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n) if rnd.random() < p]
    return graph_from_edges(edges, vertices=labels)


def brute_is_chordal(g: Graph) -> bool:
    """A graph is chordal iff no vertex subset induces a cycle of length >= 4.

    An induced subgraph is such a cycle iff it is connected and 2-regular.
    """
    n = g.n
    for smask in range(1 << n):
        members = bits(smask)
        if len(members) < 4:
            continue
        if any((g.adj[v] & smask).bit_count() != 2 for v in members):
            continue
        seen = 1 << members[0]
        frontier = [members[0]]
        while frontier:
            v = frontier.pop()
            for u in bits(g.adj[v] & smask & ~seen):
                seen |= 1 << u
                frontier.append(u)
        if seen == smask:
            return False
    return True


def brute_maximal_cliques(g: Graph) -> set[int]:
    """All maximal cliques by scanning every vertex subset."""
    n = g.n
    cliques = set()
    for mask in range(1, 1 << n):
        vs = bits(mask)
        if all((g.adj[u] >> v) & 1 for u, v in combinations(vs, 2)):
            cliques.add(mask)
    return {m for m in cliques if not any(m != o and m & o == m for o in cliques)}


# ---------------------------------------------------------------------------
# linear algebra

def frac_rank(dense: list[list[int]]) -> int:
    """Dense Gaussian elimination over Q; the rank oracle.  Rows stay
    integral: a row r with r[col] != 0 becomes a * r - r[col] * pivot row,
    a the pivot entry, which spans the same Q-row space as subtracting
    r[col] / a pivot rows, and is divided by the gcd of its entries."""
    a = [list(row) for row in dense]
    rows = len(a)
    rnk = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rnk, rows) if a[i][col]), None)
        if piv is None:
            continue
        a[rnk], a[piv] = a[piv], a[rnk]
        top = a[rnk]
        for i in range(rnk + 1, rows):
            x = a[i][col]
            if x:
                row = [top[col] * y - x * z for y, z in zip(a[i], top)]
                g = gcd(*row)
                a[i] = [y // g for y in row] if g > 1 else row
        rnk += 1
    return rnk


def modp_rank(dense: list[list[int]], p: int) -> int:
    """Dense Gaussian elimination over GF(p); the mod-p rank oracle."""
    a = [[x % p for x in row] for row in dense]
    rnk = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rnk, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rnk], a[piv] = a[piv], a[rnk]
        inv = pow(a[rnk][col], p - 2, p)
        for i in range(len(a)):
            if i != rnk and a[i][col]:
                factor = a[i][col] * inv % p
                a[i] = [(x - factor * y) % p for x, y in zip(a[i], a[rnk])]
        rnk += 1
    return rnk
