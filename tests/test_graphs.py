"""Graphs: complement, chordality with witness, cliques, generator, file IO."""

import random
from itertools import combinations

import pytest

from helpers import brute_is_chordal, brute_maximal_cliques, random_graph
from srbetti import (
    EmptyInputError,
    Graph,
    ParseError,
    Xorshift64Star,
    clique_complex,
    complete_graph,
    cycle_graph,
    f_vector,
    gen_chordal,
    graph_from_edges,
    is_chordal,
    maximal_cliques,
    minimal_non_faces,
    path_graph,
    read_graph,
    write_graph,
)


def all_graphs(n):
    """Every graph on n labeled vertices, as adjacency tuples."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    labels = tuple(str(v + 1) for v in range(n))
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for bit, (i, j) in enumerate(pairs):
            if (mask >> bit) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        yield Graph(labels, tuple(adj))


def non_edges(g):
    return set(combinations(g.labels, 2)) - set(g.edges())


def test_complement_examples():
    # the complement's edges are the minimal non-faces of the clique complex
    assert non_edges(complete_graph(3)) == set()
    assert minimal_non_faces(clique_complex(complete_graph(3))) == []
    assert sorted(non_edges(cycle_graph(4))) == [("1", "3"), ("2", "4")]
    assert minimal_non_faces(clique_complex(cycle_graph(4))) == [("1", "3"), ("2", "4")]


def test_complement_involution():
    rnd = random.Random(4001)
    for _ in range(40):
        g = random_graph(rnd, rnd.randint(1, 9))
        co = graph_from_edges(non_edges(g), vertices=g.labels)
        assert graph_from_edges(non_edges(co), vertices=co.labels) == g


def test_chordal_families():
    for n in range(1, 8):
        assert is_chordal(complete_graph(n).adj)[0]
        assert is_chordal(path_graph(n).adj)[0]
    assert not is_chordal(cycle_graph(4).adj)[0]
    assert not is_chordal(cycle_graph(5).adj)[0]
    assert not is_chordal(cycle_graph(6).adj)[0]
    assert is_chordal(cycle_graph(3).adj)[0]


def test_chordal_exhaustive_small():
    # all graphs on up to 5 labeled vertices against the subset-cycle oracle
    for n in range(1, 6):
        for g in all_graphs(n):
            assert is_chordal(g.adj)[0] == brute_is_chordal(g), g.adj


def test_chordal_random_larger():
    rnd = random.Random(4002)
    for _ in range(120):
        g = random_graph(rnd, rnd.randint(6, 10), p=rnd.uniform(0.2, 0.9))
        assert is_chordal(g.adj)[0] == brute_is_chordal(g), g.adj


def test_elimination_order_is_verified_witness():
    rnd = random.Random(4003)
    checked = 0
    for _ in range(80):
        g = random_graph(rnd, rnd.randint(2, 9), p=rnd.uniform(0.2, 0.8))
        ok, order = is_chordal(g.adj)
        if not ok:
            assert order is None
            continue
        checked += 1
        assert sorted(order) == list(range(g.n))
        later = 0
        for v in reversed(order):
            nb = g.adj[v] & later
            for u in range(g.n):
                if (nb >> u) & 1:
                    assert nb & ~g.adj[u] & ~(1 << u) == 0
            later |= 1 << v
    assert checked > 10


def test_elimination_order_breaks_ties_by_smallest_index():
    # triangles {0, 2, 4} and {1, 3, 5} joined by the edge 0-5.  The
    # simplicial vertices are 1, 2, 3 and 4, and 1 goes first; then 2 over
    # 3 and 4, then 3, then 4; then 0, whose one neighbour left is 5, then 5
    g = graph_from_edges(
        [("4", "2"), ("4", "0"), ("2", "0"), ("0", "5"), ("5", "1"), ("5", "3"), ("1", "3")],
        vertices=[str(v) for v in range(6)],
    )
    assert is_chordal(g.adj) == (True, (1, 2, 3, 4, 0, 5))


def test_maximal_cliques_brute_force():
    # every labeled graph on at most 5 vertices, then random ones on up to 8
    rnd = random.Random(4004)
    graphs = [g for n in range(6) for g in all_graphs(n)]
    graphs += [random_graph(rnd, rnd.randint(1, 8), p=rnd.uniform(0.1, 0.9)) for _ in range(80)]
    for g in graphs:
        assert set(maximal_cliques(g.adj)) == brute_maximal_cliques(g), g.adj


def test_clique_complex_examples():
    assert clique_complex(complete_graph(3)).facets == (0b111,)
    p3 = graph_from_edges([("a", "b"), ("b", "c")])
    assert clique_complex(p3).facets == (0b011, 0b110)
    c4 = clique_complex(cycle_graph(4))
    assert f_vector(c4).entries == (1, 4, 4)
    assert minimal_non_faces(c4) == [("1", "3"), ("2", "4")]


def test_clique_complex_isolated_vertices():
    g = graph_from_edges([("a", "b")], vertices=["a", "b", "z"])
    c = clique_complex(g)
    assert c.facets == (0b011, 0b100)


def test_flag_property_and_edge_ideal_of_complement():
    # minimal non-faces of the clique complex = edges of the complement
    rnd = random.Random(4005)
    for _ in range(60):
        g = random_graph(rnd, rnd.randint(1, 8))
        mnf = {frozenset(t) for t in minimal_non_faces(clique_complex(g))}
        assert all(len(s) == 2 for s in mnf)
        assert mnf == {frozenset(e) for e in non_edges(g)}


def test_gen_chordal_single_vertex_and_complete():
    g = gen_chordal(1, 0.5, 9)
    assert g.n == 1 and g.edges() == []
    for n in range(2, 7):
        assert gen_chordal(n, 1.0, 5) == complete_graph(n)


def test_gen_chordal_always_chordal():
    for seed in range(100):
        g = gen_chordal(9, 0.4, seed)
        assert is_chordal(g.adj)[0]
        assert brute_is_chordal(g)


def test_gen_chordal_deterministic():
    assert gen_chordal(8, 0.5, 42) == gen_chordal(8, 0.5, 42)
    assert gen_chordal(8, 0.5, 42) != gen_chordal(8, 0.5, 43)


def test_rng_contract_pins():
    # regression pins for the documented xorshift64* contract; a change in
    # these values silently breaks corpus reproducibility
    r = Xorshift64Star(1)
    assert [r.next_u64() for _ in range(4)] == [
        0x4B46A55DF3611B9B,
        0xD7E1F1410E763EF4,
        0x5F14EC66975F9B06,
        0x3B2C74FAD44D6CDB,
    ]
    r0 = Xorshift64Star(0)
    assert r0.next_u64() == 0x7BBCB40D550682D0
    r = Xorshift64Star(42)
    assert [r.below(100) for _ in range(8)] == [42, 23, 59, 63, 2, 43, 91, 19]


def test_graph_file_round_trip(tmp_path):
    rnd = random.Random(4006)
    for k in range(20):
        g = random_graph(rnd, rnd.randint(1, 9))
        path = tmp_path / f"g{k}.graph"
        write_graph(g, path)
        assert read_graph(path) == g


def test_graph_writer_refuses_comment_label(tmp_path):
    # the edge line "#a b" would read back as a comment
    g = graph_from_edges([("#a", "b"), ("b", "c")])
    with pytest.raises(ValueError, match="'#a'"):
        write_graph(g, tmp_path / "g.graph")


def test_graph_writer_refuses_byte_order_mark_label(tmp_path):
    # as in .cplx, though here the header comes first: the reader drops a
    # U+FEFF at the start of a file, and neither writer takes such a label
    g = graph_from_edges([("\ufeffa", "b")])
    with pytest.raises(ValueError, match=r"'\\ufeffa'"):
        write_graph(g, tmp_path / "g.graph")


def test_graph_writer_refuses_header_label(tmp_path):
    # the edge line "vertices x" would read back as a second header
    g = graph_from_edges([("vertices", "x")])
    with pytest.raises(ValueError, match="'vertices'"):
        write_graph(g, tmp_path / "g.graph")


def test_graph_writer_refuses_label_that_is_not_one_token(tmp_path):
    # the edge line "a b c" would not parse as an edge
    g = graph_from_edges([("a b", "c")])
    with pytest.raises(ValueError, match="'a b'"):
        write_graph(g, tmp_path / "g.graph")


def test_graph_file_parsing(tmp_path):
    path = tmp_path / "a.graph"
    path.write_text("# comment\nvertices a b c\na b\n\nb c\n")
    g = read_graph(path)
    assert g.labels == ("a", "b", "c")
    assert g.edges() == [("a", "b"), ("b", "c")]


@pytest.mark.parametrize(
    "text",
    ["vertices a b c\na b\nb c\n", "a b\nb c\nc a\n", "# k3\n1 2\n1 3\n2 3\n"],
    ids=["header", "edges", "comment"],
)
def test_graph_byte_order_mark_is_dropped(tmp_path, text):
    # with a UTF-8 BOM, a header line read as a bad edge, the first edge's
    # vertex as a fourth label and a comment line as an edge
    plain = tmp_path / "plain.graph"
    plain.write_text(text, encoding="utf-8")
    bom = tmp_path / "bom.graph"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert read_graph(bom) == read_graph(plain)


@pytest.mark.parametrize(
    "content",
    [
        "a b c\n",                     # three tokens, not an edge
        "a a\n",                       # loop
        "vertices a b\na c\n",         # undeclared vertex
        "vertices a b\nvertices c\n",  # duplicate header
        "a b\nvertices a b\n",         # header after edges
        "# only comments\n",           # nothing declared
    ],
)
def test_graph_file_errors(tmp_path, content):
    path = tmp_path / "bad.graph"
    path.write_text(content)
    with pytest.raises(ParseError):
        read_graph(path)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Xorshift64Star(1).below(0), ValueError, "below() needs a positive bound"),
        (lambda: Graph(("a", "a"), (0, 0)), ValueError, "duplicate vertex labels"),
        (lambda: Graph(("b", "a"), (0, 0)), ValueError, "labels must be sorted"),
        (lambda: Graph(("a",), (0, 0)), ValueError, "adjacency length mismatch"),
        (lambda: Graph(("a",), (0b10,)), ValueError, "adjacency mask out of range"),
        (lambda: clique_complex(Graph((), ())), EmptyInputError, "no facets given"),
        (lambda: gen_chordal(0, 0.5, 1), ValueError, "need n >= 1"),
        (lambda: gen_chordal(3, 1.5, 1), ValueError, "density must lie in [0, 1]"),
    ],
)
def test_input_checks(build, error, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(("a", "b"), (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph(("a",), (0b1,))  # loop
    with pytest.raises(ValueError):
        graph_from_edges([("x", "x")])
