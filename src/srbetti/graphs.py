"""Simple graphs with bitset adjacency: chordality, cliques, a seeded generator.

The graph algorithms take the adjacency masks `adj` (adj[v] is the
neighbour bitmask of vertex v), not a `Graph`, so a caller that builds
masks itself, such as the Froberg sweep, needs no `Graph`.  Chordality is
decided by removing simplicial vertices one at a time, so a positive answer
always carries a witness checked step by step, a perfect elimination order
of vertex indices.  Clique enumeration is Bron-Kerbosch with Tomita's
pivot, worst case O(3^(n/3)) (Tomita, Tanaka and Takahashi 2006); facet
output is canonicalized by sorting, so results do not depend on traversal
order.

The seeded generator is built on a fixed xorshift64* contract (documented on
Xorshift64Star) so corpora are bit-reproducible across implementations.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from pathlib import Path

from .errors import EmptyInputError, ParseError
from .simplicial import Complex, _bits, _lines

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class Xorshift64Star:
    """xorshift64* with a splitmix64-mixed seed.

    Contract (all arithmetic mod 2^64):
      seeding   state = splitmix(seed + 0x9E3779B97F4A7C15); if 0, use that constant
                where splitmix(z): z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9;
                                   z = (z ^ (z >> 27)) * 0x94D049BB133111EB;
                                   z = z ^ (z >> 31)
      next_u64  state ^= state >> 12; state ^= state << 25; state ^= state >> 27;
                return state * 0x2545F4914F6CDD1D
      below(m)  next_u64() % m        (modulo reduction, documented bias accepted)
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        z = (seed + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z = z ^ (z >> 31)
        self.state = z if z else _GOLDEN

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def below(self, m: int) -> int:
        if m <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % m


class Graph(namedtuple("Graph", "labels adj")):
    """Undirected simple graph; adj[v] is the neighbor bitmask of vertex v."""

    __slots__ = ()
    labels: tuple[str, ...]
    adj: tuple[int, ...]

    def __new__(cls, labels, adj):
        n = len(labels)
        if len(set(labels)) != n:
            raise ValueError("duplicate vertex labels")
        if tuple(sorted(labels)) != labels:
            raise ValueError("labels must be sorted")
        if len(adj) != n:
            raise ValueError("adjacency length mismatch")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError("adjacency mask out of range")
            if (row >> v) & 1:
                raise ValueError(f"loop at vertex {labels[v]!r}")
        for v in range(n):
            for u in _bits(adj[v]):
                if not (adj[u] >> v) & 1:
                    raise ValueError("adjacency not symmetric")
        return tuple.__new__(cls, (labels, adj))

    @property
    def n(self) -> int:
        return len(self.labels)

    def edges(self) -> list[tuple[str, str]]:
        out = []
        for v in range(self.n):
            for u in _bits(self.adj[v]):
                if u > v:
                    out.append((self.labels[v], self.labels[u]))
        return out


def _default_labels(n: int) -> tuple[str, ...]:
    width = len(str(n))
    return tuple(str(i).zfill(width) for i in range(1, n + 1))


def graph_from_edges(edges: Iterable[tuple[str, str]], vertices: Iterable[str] | None = None) -> Graph:
    """Build a graph from labeled edges, plus optional isolated vertices (Graph refuses a loop)."""
    tokens: set[str] = set(vertices) if vertices is not None else set()
    edge_list = []
    for u, v in edges:
        tokens.add(u)
        tokens.add(v)
        edge_list.append((u, v))
    labels = tuple(sorted(tokens))
    index = {t: k for k, t in enumerate(labels)}
    adj = [0] * len(labels)
    for u, v in edge_list:
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    return Graph(labels, tuple(adj))


def cycle_graph(n: int) -> Graph:
    labels = _default_labels(n)
    return graph_from_edges([(labels[i], labels[(i + 1) % n]) for i in range(n)])


def path_graph(n: int) -> Graph:
    labels = _default_labels(n)
    return graph_from_edges([(labels[i], labels[i + 1]) for i in range(n - 1)], vertices=labels)


def complete_graph(n: int) -> Graph:
    labels = _default_labels(n)
    return graph_from_edges(
        [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)], vertices=labels
    )


def is_chordal(adj: Sequence[int]) -> tuple[bool, tuple[int, ...] | None]:
    """Chordality test of the graph with adjacency masks adj, with a perfect
    elimination order of its vertex indices as witness.

    Removes simplicial vertices one at a time, each time the smallest index
    whose remaining neighbours are pairwise adjacent; the removal order is
    the witness, each step checked as it is taken.  Every chordal graph has
    a simplicial vertex and its induced subgraphs are chordal (Dirac 1961),
    so the removal runs to the end iff the graph is chordal; otherwise it
    stops at an induced subgraph with no simplicial vertex.
    """
    left = (1 << len(adj)) - 1  # the vertices not yet removed
    order: list[int] = []
    while left:
        rest = left
        while rest:  # ascending, so the smallest simplicial vertex is found
            low = rest & -rest
            nbrs = todo = adj[low.bit_length() - 1] & left
            while todo:  # each neighbour is adjacent to all the others
                b = todo & -todo
                if nbrs & ~adj[b.bit_length() - 1] & ~b:
                    break
                todo ^= b
            if not todo:
                break
            rest ^= low
        if not rest:
            return False, None
        order.append(low.bit_length() - 1)
        left ^= low
    return True, tuple(order)


def maximal_cliques(adj: Sequence[int]) -> list[int]:
    """All maximal cliques as bitmasks, sorted ascending (Bron-Kerbosch, Tomita's pivot)."""
    n = len(adj)
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        pool = p | x
        pivot = -1
        best = -1
        for u in _bits(pool):
            c = (p & adj[u]).bit_count()
            if c > best:
                best = c
                pivot = u
        for v in _bits(p & ~adj[pivot]):
            bk(r | (1 << v), p & adj[v], x & adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    if n:  # no vertices, no cliques
        bk(0, (1 << n) - 1, 0)
    return sorted(out)


def clique_complex(g: Graph) -> Complex:
    """The flag complex whose faces are the cliques of g.

    Its facets are the maximal cliques, already a sorted antichain that
    covers every vertex.
    """
    if g.n == 0:
        raise EmptyInputError("no facets given")
    return Complex(g.labels, tuple(maximal_cliques(g.adj)))


def gen_chordal(n: int, density: float, seed: int) -> Graph:
    """Seeded random chordal graph by incremental simplicial-vertex insertion.

    Vertex k (k >= 1 previously placed) attaches to a clique of the existing
    graph, grown greedily to a target size of max(1, floor(density*k + 0.5)):
    draw a vertex, then repeatedly draw from the common neighbors of the
    clique so far.  The growth can stop short when no common neighbor
    remains; at density 1.0 it never does, so the output is complete.
    Attaching to a clique keeps the insertion order a reversed perfect
    elimination order, hence the result is always chordal.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    rng = Xorshift64Star(seed)
    adj = [0] * n
    for k in range(1, n):
        target = max(1, int(density * k + 0.5))
        cand = list(range(k))
        clique = 0
        while cand and clique.bit_count() < target:
            v = cand[rng.below(len(cand))]
            clique |= 1 << v
            cand = [u for u in cand if u != v and (adj[u] >> v) & 1]
        adj[k] |= clique
        for v in _bits(clique):
            adj[v] |= 1 << k
    labels = _default_labels(n)
    return Graph(labels, tuple(adj))


def graph_text(g: Graph) -> str:
    """The .graph text of g: a vertex header, then one edge per line.  A
    label that is not one token, starts with '#' (a comment line) or U+FEFF
    (as in write_complex) or is 'vertices' (a header line): ValueError."""
    for label in g.labels:
        if label.split() != [label] or label.startswith(("#", "\ufeff")) or label == "vertices":
            raise ValueError(f"vertex label {label!r} cannot be written to a .graph file")
    lines = ["vertices " + " ".join(g.labels)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def write_graph(g: Graph, path) -> None:
    """Write g to a .graph file (see graph_text)."""
    Path(path).write_text(graph_text(g), encoding="utf-8")


def read_edges(path) -> tuple[list[tuple[str, str]], set[str] | None]:
    """The edges and the vertex header (None if absent) of a .graph file
    naming some vertex (lines as in simplicial._lines): optional vertex header, edges."""
    vertices: set[str] | None = None
    edges: list[tuple[str, str]] = []
    for lineno, line in _lines(path):
        parts = line.split()
        if parts[0] == "vertices":
            if vertices is not None:
                raise ParseError(path, lineno, "duplicate vertex header")
            if edges:
                raise ParseError(path, lineno, "vertex header must precede edges")
            vertices = set(parts[1:])
            continue
        if len(parts) != 2:
            raise ParseError(path, lineno, f"expected 'u v', got {line!r}")
        u, v = parts
        if u == v:
            raise ParseError(path, lineno, f"loop edge {u!r}")
        if vertices is not None and (u not in vertices or v not in vertices):
            raise ParseError(path, lineno, f"edge uses undeclared vertex in {line!r}")
        edges.append((u, v))
    if not vertices and not edges:
        raise ParseError(path, None, "no vertices or edges found")
    return edges, vertices


def read_graph(path) -> Graph:
    """Parse a .graph file (see read_edges) into a graph."""
    return graph_from_edges(*read_edges(path))
