"""The graded Betti oracle: subset-formula tables and their classification."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import reduce
from itertools import combinations
from math import comb
from operator import or_

import pytest

from helpers import (
    alexander_dual,
    betti_product,
    bits,
    brute_betti,
    brute_dominated_vertices,
    brute_face_masks,
    brute_integral_support,
    brute_maximal_cliques,
    brute_reduced_dims,
    brute_removable_by_link,
    brute_split_vertices,
    bumped_table,
    cross_polytope,
    flag_subdivision,
    join,
    koszul_betti,
    koszul_table,
    random_complex,
    random_graph,
    suspension,
)
from srbetti import (
    BettiTable,
    Complex,
    Graph,
    GF_DEFAULT,
    QQ,
    FieldSpec,
    TooManyVerticesError,
    classify,
    clique_complex,
    complete_graph,
    complex_from_facets,
    cycle_graph,
    f_vector,
    fixture_path,
    graded_betti,
    graph_from_edges,
    minimal_non_faces,
    read_complex,
)
from srbetti import betti, homology, simplicial
from srbetti.homology import torsion_shift
from srbetti.simplicial import _maximal_masks
from srbetti.verify import corpus_graphs, froberg_exhaustive, verify_complex

C4 = complex_from_facets([["1", "2"], ["2", "3"], ["3", "4"], ["1", "4"]])
TRI = complex_from_facets([["1", "2"], ["1", "3"], ["2", "3"]])
TWO_POINTS = complex_from_facets([["a"], ["b"]])
# minimal non-faces {1,2} and {3,4,5}: one quadric and one cubic generator
MIXED = complex_from_facets(
    [["1", "3", "4"], ["1", "3", "5"], ["1", "4", "5"], ["2", "3", "4"], ["2", "3", "5"], ["2", "4", "5"]]
)


def test_two_points_table():
    t = graded_betti(TWO_POINTS)
    assert t.as_dict() == {(0, 0): 1, (1, 2): 1}


def test_c4_table_matches_koszul_oracle():
    # two quadrics forming a complete intersection resolve by the Koszul
    # complex: one relation in degree 4 and nothing else
    t = graded_betti(C4)
    assert t.as_dict() == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
    assert t.pdim == 2


def test_full_simplex_table():
    t = graded_betti(complex_from_facets([["x", "y", "z"]]))
    assert t.as_dict() == {(0, 0): 1}
    assert t.pdim == 0


def test_triangle_boundary_table():
    t = graded_betti(TRI)
    assert t.as_dict() == {(0, 0): 1, (1, 3): 1}


def test_pentagon_table():
    # self-dual 5-cycle: pure of type (2, 3, 5) with Betti numbers (5, 5, 1)
    t = graded_betti(clique_complex(cycle_graph(5)))
    assert t.as_dict() == {(0, 0): 1, (1, 2): 5, (2, 3): 5, (3, 5): 1}


def test_vertex_cap_enforced():
    c = clique_complex(complete_graph(8))
    with pytest.raises(TooManyVerticesError):
        graded_betti(c, n_cap=7)


def test_relabeling_invariance():
    relabeled = complex_from_facets([["p", "q"], ["q", "r"], ["r", "s"], ["p", "s"]])
    assert graded_betti(relabeled).cells == graded_betti(C4).cells


def test_no_entries_in_homological_degree_zero_beyond_origin():
    rnd = random.Random(6001)
    tables = [graded_betti(random_complex(rnd, max_n=6)) for _ in range(40)]
    for t in tables:
        assert t.as_dict().get((0, 0), 0) == 1
        assert all(i >= 1 for i, j, _ in t.cells if (i, j) != (0, 0))
    assert {classify(t).kind for t in tables} == {"linear", "general"}


def test_classification_examples():
    assert classify(graded_betti(C4)) .kind == "pure"
    assert classify(graded_betti(C4)).degrees == (2, 4)
    assert classify(graded_betti(C4)).p == 1

    p3 = clique_complex(graph_from_edges([("a", "b"), ("b", "c")]))
    shape = classify(graded_betti(p3))
    assert shape.kind == "linear" and shape.t == 2 and shape.p == 0

    assert classify(graded_betti(MIXED)).kind == "general"
    assert classify(graded_betti(complex_from_facets([["x", "y"]]))).kind == "trivial"


def test_mixed_generators_table():
    t = graded_betti(MIXED)
    assert t.as_dict().get((1, 2), 0) == 1 and t.as_dict().get((1, 3), 0) == 1


def test_pure_shape_examples():
    s = classify(graded_betti(C4))
    assert (s.p, s.degrees, s.betti) == (1, (2, 4), (2, 1))

    s = classify(graded_betti(TWO_POINTS))
    assert (s.p, s.degrees, s.betti) == (0, (2,), (1,))

    s = classify(graded_betti(TRI))
    assert (s.p, s.degrees, s.betti) == (0, (3,), (1,))


def test_non_pure_shapes_carry_no_resolution_data():
    for c in (MIXED, complex_from_facets([["x", "y"]])):
        s = classify(graded_betti(c))
        assert (s.degrees, s.betti, s.p, s.t) == (None, None, None, None), s.kind


def test_pdim_at_least_codim():
    rnd = random.Random(6002)
    complexes = [C4, TRI, TWO_POINTS, MIXED, read_complex(fixture_path("rp2.cplx"))]
    complexes += [clique_complex(g) for g in corpus_graphs(20, 8, 3)]
    complexes += [random_complex(rnd, max_n=6) for _ in range(20)]
    kinds = set()
    for c in complexes:
        t = graded_betti(c)
        assert t.pdim >= c.n - f_vector(c).d, c.facets
        shape = classify(t)
        kinds.add(shape.kind)
        if shape.is_pure:
            # the shape's data is the table's, with the ring displayed separately
            assert shape.betti == tuple(t.as_dict().get((i + 1, d), 0) for i, d in enumerate(shape.degrees))
            assert shape.p == t.pdim - 1
        if shape.kind == "linear":
            assert shape.degrees == tuple(range(shape.t, shape.t + shape.p + 1))
    assert kinds == {"trivial", "linear", "pure", "general"}


def test_flag_complex_generators_are_quadrics():
    for g in corpus_graphs(20, 8, 5):
        t = graded_betti(clique_complex(g))
        assert all(j == 2 for i, j, _ in t.cells if i == 1)


def test_field_independence_on_corpus():
    fixtures = [C4, TRI, TWO_POINTS, MIXED]
    fixtures += [clique_complex(g) for g in corpus_graphs(15, 8, 9)]
    for c in fixtures:
        assert graded_betti(c, GF_DEFAULT).cells == graded_betti(c, QQ).cells


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_cross_polytope_koszul_pattern(r):
    # complete intersection of r quadrics: beta_{i,2i} = C(r, i), pure with
    # degrees (2, 4, ..., 2r); an independent closed-form oracle
    from math import comb

    t = graded_betti(cross_polytope(r))
    expected = {(0, 0): 1}
    expected.update({(i, 2 * i): comb(r, i) for i in range(1, r + 1)})
    assert t.as_dict() == expected
    shape = classify(t)
    assert shape.degrees == tuple(2 * i for i in range(1, r + 1))
    # a length-one resolution is vacuously consecutive, hence linear
    assert shape.kind == ("linear" if r == 1 else "pure")


RP2 = read_complex(fixture_path("rp2.cplx"))
# six stellar edge subdivisions make rp2 flag: 12 vertices, 22 triangles
FLAG_RP2 = flag_subdivision(RP2, 6)


def test_tables_match_brute_force_hochster():
    # every subset, cones included: guards the sweep's removal rules and
    # the masks it hands each core
    rnd = random.Random(6004)
    complexes = [C4, MIXED, RP2, suspension(RP2)]
    complexes += [cross_polytope(r) for r in (1, 2, 3, 4)]
    complexes += [random_complex(rnd, max_n=6) for _ in range(60)]
    complexes += [random_complex(rnd, max_n=6, max_facets=10, max_size=3) for _ in range(100)]
    for c in complexes:
        assert graded_betti(c, QQ).as_dict() == brute_betti(c), c.facets


def test_tables_match_koszul_complex():
    # Tor from the Koszul complex of the face ring, where no restriction
    # and no homology of a complex enters, against the sweep and Hochster's
    # formula: a misreading of the degree shift or of which subsets count
    # that both share fails here.  rp2 differs over GF(2)
    rnd = random.Random(6017)
    complexes = [RP2, cross_polytope(3)]
    complexes += [random_complex(rnd, max_n=6, max_facets=8) for _ in range(20)]
    for c in complexes:
        for field in (QQ, FieldSpec.prime(2), FieldSpec.prime(3)):
            table = graded_betti(c, field).as_dict()
            assert koszul_betti(c, field.p) == table == brute_betti(c, field.p), (c.facets, field)


def primed(c):
    """c with a prime on every label, to join it with a complex on the same labels."""
    return complex_from_facets([[c.labels[v] + "'" for v in bits(f)] for f in c.facets])


def test_join_multiplies_betti_polynomials():
    # k[D * G] = k[D] (x) k[G] over every field k, and the tensor product of
    # minimal resolutions is minimal: B_{D*G}(s, t) = B_D(s, t) B_G(s, t).
    # rp2 and its suspension carry 2-torsion into the joins, and the random
    # pairs give general shapes; at most 14 vertices are joined
    rnd = random.Random(6007)
    pairs = [(RP2, primed(RP2)), (RP2, primed(suspension(RP2)))]
    pairs += [(suspension(RP2), primed(C4)), (TRI, primed(MIXED))]
    pairs += [(RP2, random_complex(rnd, max_n=6, max_size=3)) for _ in range(4)]
    pairs += [(random_complex(rnd), primed(random_complex(rnd, max_size=4))) for _ in range(16)]
    fields = (QQ, FieldSpec.prime(2), FieldSpec.prime(3))
    torsion = 0
    counted = []
    for c1, c2 in pairs:
        joined = join(c1, c2)
        assert joined.n == c1.n + c2.n <= 14
        tables = {}
        for field in fields:
            t1, t2, tables[field] = (graded_betti(c, field) for c in (c1, c2, joined))
            assert tables[field].as_dict() == betti_product(t1, t2), (c1.facets, c2.facets, field)
            # one cell more in a factor's table breaks the product
            k = rnd.randrange(len(t1.cells))
            assert tables[field].as_dict() != betti_product(bumped_table(t1, k), t2)
        torsion += tables[QQ].cells != tables[fields[1]].cells
        counted.append(tables[QQ].torsion)
    assert torsion >= 2
    # the table counts restrictions by (|W|, torsion): in rp2 * Σrp2, 130
    # restrictions with torsion share 10 of them
    assert (len(counted[1]), sum(count for _, count in counted[1])) == (10, 130)


def dual_betti(c, field) -> dict[tuple[int, int], int]:
    """The Betti numbers of the face ring of c's Alexander dual over all of
    c's vertices, a vertex of c in no face of the dual adding 1 + s t."""
    dual, missing = alexander_dual(c)
    return betti_product(graded_betti(dual, field), koszul_table(missing, field))


def terai(table, dual) -> bool:
    """pd(S/I_Delta) = reg(I_dual), where reg(I) = max(j - i) over the
    cells beta_{i,j}(I) = beta_{i+1,j}(S/I)."""
    return table.pdim == max(j - i + 1 for (i, j), v in dual.items() if i and v)


def eagon_reiner(table, dual, n, dual_dim) -> bool:
    """I_Delta has a linear resolution iff S/I_dual is Cohen-Macaulay:
    pdim = codim = n - (dim dual + 1)."""
    pdim = max(i for (i, _), v in dual.items() if v)
    return (classify(table).kind == "linear") == (pdim == n - dual_dim - 1)


def test_alexander_duality_identities():
    # Terai (1999): pd(S/I_Delta) = reg(I_dual); Eagon and Reiner (1998):
    # I_Delta is linear iff S/I_dual is Cohen-Macaulay.  Each holds over
    # every field, so the GF(2) tables of rp2, its suspension and their
    # duals must carry the torsion: with the dual's table over Q instead,
    # Eagon-Reiner fails on rp2.  Swapping the dual for the complex itself
    # must break each identity somewhere.  The small draws give duals with
    # missing vertices and linear ideals; the 9- to 12-vertex ones are of
    # general shape, past the brute-force oracles' size
    rnd = random.Random(6014)
    complexes = [RP2, suspension(RP2), TRI, MIXED]
    complexes += [random_complex(rnd, max_n=6, max_facets=4, max_size=3) for _ in range(16)]
    for n in (9, 10, 11, 12) * 3:
        facets = [rnd.sample(range(n), rnd.randint(2, 4)) for _ in range(rnd.randint(n // 2, 2 * n))]
        complexes.append(complex_from_facets([[f"v{v}" for v in f] for f in facets]))
    fields = (QQ, FieldSpec.prime(2))
    linear = missing = 0
    swapped = [0, 0]
    for c in complexes:
        dual, m = alexander_dual(c)
        missing += m > 0
        for field in fields:
            table, cells = graded_betti(c, field), dual_betti(c, field)
            assert terai(table, cells), (c.facets, field)
            assert eagon_reiner(table, cells, c.n, dual.dim), (c.facets, field)
            linear += classify(table).kind == "linear"
            own = table.as_dict()
            swapped[0] += not terai(table, own)
            swapped[1] += not eagon_reiner(table, own, c.n, c.dim)
    assert all(swapped) and missing and linear
    table = graded_betti(RP2, fields[1])
    assert not eagon_reiner(table, dual_betti(RP2, QQ), RP2.n, alexander_dual(RP2)[0].dim)


def count_misses(monkeypatch) -> list:
    """Record the masks of every elimination: one per core visited, of the
    sweep or of a link restriction, and one for each `_Results`'s empty
    subset."""
    calls = []
    real = betti.reduced_dims_from_facets

    def counting(facets):
        calls.append(facets)
        return real(facets)

    monkeypatch.setattr(betti, "reduced_dims_from_facets", counting)
    return calls


def count_cores(monkeypatch) -> tuple[list, list]:
    """Record the subset W of every core the sweep visits, the union of its
    maximal masks, and the vertex set of every link restriction, of a
    vertex or of a larger face, it computes off flag complexes
    (`betti._link_result` not read from its memo; a simplex is never
    memoised, so it counts on every call).  A core of a link restriction,
    visited while one is computed, is not a core of the sweep."""
    cores, links = [], []
    computing = []
    real_core, real_link = betti._Results.core, betti._link_result

    def core(self, maximal):
        if not computing:
            cores.append(reduce(or_, maximal))
        return real_core(self, maximal)

    def link_result(sigma, s, face, stars, results):
        if s and s not in stars[sigma][0]:
            links.append(s)
        computing.append(s)
        try:
            return real_link(sigma, s, face, stars, results)
        finally:
            computing.pop()

    monkeypatch.setattr(betti._Results, "core", core)
    monkeypatch.setattr(betti, "_link_result", link_result)
    return cores, links


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_tables_match_brute_force_mod_p(p):
    # the tables over GF(p) are derived from integral homology; the oracle
    # ranks every restriction mod p.  rp2 has torsion 2 in the boundary map
    # 2 and its suspension in map 3
    rnd = random.Random(6006)
    complexes = [C4, MIXED, RP2, suspension(RP2)]
    complexes += [clique_complex(g) for g in corpus_graphs(5, 8, 11)]
    complexes += [random_complex(rnd, max_n=7, max_facets=10, max_size=4) for _ in range(40)]
    for c in complexes:
        assert graded_betti(c, FieldSpec.prime(p)).as_dict() == brute_betti(c, p), c.facets


def general_complex(n: int, seed: int) -> Complex:
    """A complex shaped like the benchmark's `general`: 2n facets of 3 to 6
    of n vertices each, drawn by `random.Random(seed)`."""
    rnd = random.Random(seed)
    return complex_from_facets([[f"v{v}" for v in rnd.sample(range(n), rnd.randint(3, 6))] for _ in range(2 * n)])


def count_visits(monkeypatch) -> list:
    """Record the vertex set of every core visited, of the sweep or of a
    link restriction, and each `_Results`'s empty subset."""
    visits = []
    real = betti._Results.core

    def core(self, maximal):
        visits.append(reduce(or_, maximal))
        return real(self, maximal)

    monkeypatch.setattr(betti._Results, "core", core)
    return visits


def test_cores_are_eliminated_once(monkeypatch):
    calls = count_misses(monkeypatch)
    cores, links = count_cores(monkeypatch)
    visits = count_visits(monkeypatch)
    assert froberg_exhaustive(5).passed
    # with the split no restriction of a graph on 5 vertices is a core but
    # the empty subset, which the sweep's one `_Results` registers and
    # eliminates once, not once per graph; no sweep shares it with
    # another, so the second sweep eliminates it again
    assert cores == [0] and calls == [[0]]
    calls.clear()
    cores.clear()
    assert froberg_exhaustive(5).passed
    assert cores == [0] and calls == [[0]]
    # off flag complexes cores remain: five general complexes make one core
    # of the sweep and compute 14,554 link restrictions, of vertices and of
    # larger faces, and each of the 6 core visits, the empty subsets
    # included, is one elimination, on every pass.  A simplex is not
    # memoised, so it counts on every call.  The visits fell from 524 when
    # link restrictions split only by isolated and dominated vertices: the
    # split removes a vertex whose link has homology too, and small link
    # cores were most of the visits; the restrictions rose from 6,430, as a
    # split reads both sides, A and the link of a face one vertex larger,
    # and from 12,201 when a cone was caught before the split: a cone that
    # is no simplex is now split and memoised, with the restrictions it reads
    complexes = [general_complex(10, seed) for seed in range(5)]
    for _ in range(2):
        cores.clear()
        links.clear()
        visits.clear()
        calls.clear()
        for c in complexes:
            graded_betti(c)
        assert (len(cores) - cores.count(0), len(links), len(visits), len(calls)) == (1, 14554, 6, 6)


def test_general_eliminations_are_bounded(monkeypatch):
    # a count, not a time: the general complex on 14 vertices with 28 drawn
    # facets of 3 to 6 vertices (`random.Random(3)`) eliminated 8,385
    # restrictions before the split, and 1,565 while link restrictions
    # split only by isolated and dominated vertices, nearly all small link
    # cores.  With the split at every level it visits 4 cores: the empty
    # subset and three of the sweep, each eliminated where it is met.  A
    # rule that stops applying raises both counts
    calls = count_misses(monkeypatch)
    visits = count_visits(monkeypatch)
    graded_betti(general_complex(14, 3))
    assert len(visits) == 4 and len(calls) == len(visits), (len(visits), len(calls))


def test_chordal_corpus_has_no_core_but_the_empty_subset(monkeypatch):
    # every induced subgraph of a chordal graph has a simplicial vertex
    # (Dirac), which is isolated or dominated, so no nonempty subset of a
    # chordal graph's clique complex is a core; the empty subset has no
    # vertex and is one, eliminated once per sweep
    graphs = corpus_graphs(200, 9, 7)
    calls = count_misses(monkeypatch)
    cores, _ = count_cores(monkeypatch)
    for g in graphs:
        graded_betti(clique_complex(g))
    assert cores == [0] * 200 and len(calls) == 200


def test_a_core_reduces_its_masks_once(monkeypatch):
    # the sweep hands a core's maximal masks to the elimination, which
    # uses them as given; the split and the link's simplex test read facets
    # and their unions, and reduce no masks.  So on every kind of input the
    # masks are reduced exactly once per core visited, of the sweep or of a
    # link restriction, but the empty subset, which has none; never for a
    # link restriction that splits or is a simplex; and never in homology
    counts = {"betti": 0, "homology": 0}
    for module in (betti, homology):

        def counting(masks, name=module.__name__.rsplit(".", 1)[1]):
            counts[name] += 1
            return _maximal_masks(masks)

        # homology has no _maximal_masks to replace; one it imported again would be counted
        monkeypatch.setattr(module, "_maximal_masks", counting, raising=False)
    cores, links = count_cores(monkeypatch)
    visits = count_visits(monkeypatch)
    rnd = random.Random(6014)
    flag = [clique_complex(random_graph(rnd, 8)) for _ in range(20)]
    others = [RP2, suspension(RP2), join(RP2, primed(TRI)), join(RP2, primed(C4))]
    others += [random_complex(rnd, max_n=8, max_facets=rnd.choice([10, 16]), max_size=4) for _ in range(30)]
    kinds = {"flag": flag}
    for c in others:
        kinds.setdefault(_kind(c), []).append(c)
    assert len(kinds["few wide non-faces"]) >= 10 and len(kinds["non-flag"]) >= 4
    reduced = {}
    for kind, complexes in kinds.items():
        counts["betti"] = 0
        cores.clear()
        links.clear()
        visits.clear()
        for c in complexes:
            graded_betti(c)
        assert cores.count(0) == len(complexes), kind
        assert counts == {"betti": len(visits) - len(complexes), "homology": 0}, kind
        reduced[kind] = (len(cores) - len(complexes), len(visits) - len(cores), len(links))
    # (cores of the sweep, cores of link restrictions, link restrictions
    # computed): no flag complex on 8 vertices has a core but the empty
    # subset; off flag complexes nearly every link restriction splits or is
    # a simplex and reduces nothing (133 and 9 link cores of 3,343 and 996
    # when only an isolated or a dominated vertex removed one; a split
    # reads both of its sides, so more restrictions are computed: 5,665 and
    # 1,222 while a cone was caught before the split, and more now that a
    # cone that is no simplex is split and memoised)
    assert reduced == {"flag": (0, 0, 0), "few wide non-faces": (8, 20, 7982), "non-flag": (1, 0, 1304)}


def test_one_sweep_serves_every_field(monkeypatch):
    # a report over GF(p) also needs the table over Q; both come from one
    # sweep, so a report costs the eliminations of one sweep: the empty
    # subset and rp2's whole set (8 while link restrictions split only by
    # isolated and dominated vertices: each vertex's link, a pentagon, was
    # a core too).  A second `graded_betti` over another field sweeps again
    # and costs as many; `over` gives the same table from the first
    # sweep's torsion for none
    calls = count_misses(monkeypatch)
    rep = verify_complex(RP2, GF_DEFAULT)
    assert len(calls) == 2 and rep.char_zero_agrees is True
    for field in (GF_DEFAULT, FieldSpec.prime(2), QQ):
        calls.clear()
        table = graded_betti(RP2, field)
        assert len(calls) == 2
        calls.clear()
        assert rep.table.over(field) == table and calls == []
    # without torsion `over` keeps the cells and gives the whole record,
    # torsion () included, that a sweep over the other field gives: C4 and
    # the default corpus's second graph, on 6 vertices
    for c in (C4, clique_complex(corpus_graphs(2, 9, 7)[1])):
        rep = verify_complex(c, GF_DEFAULT)
        for field in (GF_DEFAULT, FieldSpec.prime(2), QQ):
            table = graded_betti(c, field)
            calls.clear()
            assert rep.table.over(field) == table and table.torsion == () and calls == [], (c.facets, field)


def test_tables_do_not_depend_on_call_order():
    # every table computed in a shuffled mix equals the table computed
    # alone.  rp2 differs over GF(2) and GF(32003), so each sweep must
    # carry its own torsion; mixed sizes give cores of many sizes
    rnd = random.Random(6005)
    complexes = [C4, RP2, suspension(RP2)]
    complexes += [random_complex(rnd, max_n=8, max_facets=12, max_size=4) for _ in range(40)]
    jobs = [(c, field) for c in complexes for field in (FieldSpec.prime(2), GF_DEFAULT)]
    alone = {(c, field): graded_betti(c, field) for c, field in jobs}
    rnd.shuffle(jobs)
    for c, field in jobs:
        assert graded_betti(c, field) == alone[c, field], (c.facets, field)


def test_threads_get_the_tables_of_one_thread():
    # a sweep shares nothing with another, so threads that sweep at once
    # get the tables one thread computes, torsion with Betti numbers.  A
    # tiny switch interval makes the threads interleave inside the sweep
    field = FieldSpec.prime(2)
    complexes = [RP2, suspension(RP2), suspension(primed(suspension(RP2)))]
    alone = {c: graded_betti(c, field) for c in complexes}
    jobs = complexes * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            tables = list(pool.map(lambda c: graded_betti(c, field), jobs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert tables == [alone[c] for c in jobs]


def test_clique_flags_without_the_split_eliminate_every_graph(monkeypatch):
    # with every split refused, each graph on each nonempty subset is a
    # core, eliminated once on its maximal cliques, and the empty subset
    # once: 1,450 eliminations on 5 vertices.  The flags are those the
    # split gives
    expected = [betti._clique_flags(n) for n in range(6)]
    eliminated = []
    real = betti._Results.core
    monkeypatch.setattr(betti._Results, "core", lambda self, maximal: eliminated.append(tuple(maximal)) or real(self, maximal))
    monkeypatch.setattr(betti._Results, "split", lambda self, a, link: None)
    for n in range(6):
        eliminated.clear()
        assert betti._clique_flags(n) == expected[n], n
        assert len(set(eliminated)) == len(eliminated) == sum(comb(n, j) * 2 ** comb(j, 2) for j in range(n + 1))
        assert eliminated[0] == (0,)
        labels = tuple(f"{v:02}" for v in range(n))
        for maximal in eliminated[1:]:
            w = reduce(or_, maximal)
            adj = [reduce(or_, [m for m in maximal if m >> v & 1], 0) & ~(1 << v) for v in range(n)]
            assert set(maximal) == {m for m in brute_maximal_cliques(Graph(labels, tuple(adj))) if m & w}, maximal
    assert len(eliminated) == 1450


# no vertex of the whole graph is isolated or dominated, but the link of 6,
# the restriction to its neighbours {0, 1, 2, 4}, is the path 0-2-1-4
LINK_PATH = graph_from_edges(
    [("0", "2"), ("0", "3"), ("0", "6"), ("1", "2"), ("1", "3"), ("1", "4"), ("1", "6"), ("2", "5"), ("2", "6"),
     ("3", "5"), ("4", "5"), ("4", "6")]
)


# the 7-vertex torus: each vertex link is a hexagon and the rest a punctured
# torus, both with H_1, so the whole set is a core without torsion
TORUS = complex_from_facets([[str(i), str((i + d) % 7), str((i + 3) % 7)] for i in range(7) for d in (1, 2)])


def _with(c: Complex, *facets) -> Complex:
    """c with these facets added."""
    return complex_from_facets([c.tokens_of(f) for f in c.facets] + [list(f) for f in facets])


def _kind(c: Complex) -> str:
    """flag; non-flag with fewer minimal non-faces of 3 or more vertices
    than facets, as joins of 2-neighborly complexes are; or other non-flag."""
    wide = sum(len(t) > 2 for t in minimal_non_faces(c))
    return "flag" if not wide else "few wide non-faces" if wide < len(c.facets) else "non-flag"


def test_every_subset_result_matches_brute_force(monkeypatch):
    # the sweep keeps one result per subset W, Betti numbers over Q and
    # torsion; over Q, GF(2) and GF(3) they must give the reduced homology
    # of Delta_W that the oracle computes from its faces, and W must be a
    # core exactly when no vertex of it is alone or splits it ({} has no
    # vertex): an isolated vertex of a larger W, a dominated one and one
    # with an acyclic link are cases of the split.  rp2 plus a point and
    # plus a pendant edge carry torsion through an isolated and a dominated
    # vertex, and plus a path of two edges between two of its vertices
    # through a split; rp2 plus a cone over a non-contractible triangle,
    # its apex the lowest vertex, meets torsion in A under a free link, and
    # on rp2's suspension the link of a pole is rp2.  rp2's whole set is a
    # core with torsion (each link a pentagon, each A a Moebius band), the
    # torus's whole set one without
    rnd = random.Random(6013)
    complexes = [C4, TRI, MIXED, RP2, suspension(RP2), cross_polytope(3), _with(RP2, "z"), _with(RP2, ("1", "z"))]
    complexes += [_with(RP2, ("1", "z"), ("2", "z")), _with(RP2, ("0", "1", "2"), ("0", "2", "4"), ("0", "1", "4"))]
    complexes += [clique_complex(LINK_PATH), TORUS]
    complexes += [random_complex(rnd, max_n=7, max_facets=8, max_size=rnd.choice([2, 3, 4])) for _ in range(40)]
    complexes += [random_complex(rnd, max_n=7, max_facets=16, max_size=4) for _ in range(20)]
    complexes += [clique_complex(random_graph(rnd, rnd.randint(4, 7))) for _ in range(20)]
    cores, _ = count_cores(monkeypatch)
    kinds = set()
    for c in complexes:
        flag = _kind(c) == "flag"
        faces = brute_face_masks(c)
        edges = {f for f in faces if f.bit_count() == 2}
        cores.clear()
        results = betti._Results()
        res = betti._subset_results(c.facets, c.n, results)
        for w in range(1 << c.n):
            dims, torsion = results.values[res[w]]
            whole = {f for f in faces if f & w == f}
            for p in (None, 2, 3):
                expected = brute_reduced_dims(whole, p)
                got = list(dims) + [0] * (len(expected) + 2)
                for k in torsion_shift(torsion, p):
                    got[k] += 1
                assert got[: len(expected)] == expected and not any(got[len(expected) :]), (c.facets, w, p)
            isolated = any(not any(e & 1 << u and e & w == e for e in edges) for u in bits(w))
            dominated = bool(brute_dominated_vertices(faces, w))
            linked = flag and bool(brute_removable_by_link(faces, w))
            split = bool(brute_split_vertices(faces, w))
            # an empty link is an isolated vertex, a cone link a dominated
            # one; each is a split but for W = {u}, where A and the link are
            # both the empty complex
            assert linked or not flag or not (isolated or dominated), (c.facets, w)
            assert split or w & w - 1 == 0 or not linked, (c.facets, w)
            rules = {"isolated": isolated, "dominated": dominated, "acyclic link": linked, "split": split}
            kind = next((name for name, applies in rules.items() if applies), "core")
            assert (w in cores) == (kind == "core"), (c.facets, w)
            kinds.add((kind, bool(torsion), w != 0))
    assert kinds >= {(kind, t, True) for kind in ("isolated", "dominated", "split", "core") for t in (False, True)}
    assert ("acyclic link", False, True) in kinds and ("core", False, False) in kinds
    assert {_kind(c) for c in complexes} == {"flag", "few wide non-faces", "non-flag"}


def test_split_reads_integral_homology_in_every_degree():
    # dims are reduced Betti numbers from degree -1, torsion (i, t) a Z/t
    # in degree i - 1.  A link with torsion never splits; A's torsion is
    # homology in its degree, once however many factors it has; the link's
    # Betti numbers land one degree up, and A's torsion stays
    results = betti._Results()
    ids = {
        name: results.id(hom)
        for name, hom in {
            "two H_1 torsions": ((0, 0, 0), ((2, 2), (2, 2))),
            "rp2": ((), ((2, 2),)),
            "two points": ((0, 1), ()),
            "circle": ((0, 0, 1), ()),
            "sphere": ((0, 0, 0, 1), ()),
            "point": ((0,), ()),
        }.items()
    }
    split = {(a, link): results.split(ids[a], ids[link]) for a in ids for link in ids}
    assert split["sphere", "rp2"] is None and split["point", "rp2"] is None
    assert split["two H_1 torsions", "circle"] is None and split["rp2", "circle"] is None
    assert split["circle", "circle"] is None
    assert all(split[a, "point"] == ids[a] for a in ids)
    values = {pair: results.values[rid] for pair, rid in split.items() if rid is not None}
    assert values["two H_1 torsions", "sphere"] == ((0, 0, 0, 0, 1), ((2, 2), (2, 2)))
    assert values["two H_1 torsions", "two points"] == ((0, 0, 1), ((2, 2), (2, 2)))
    assert values["rp2", "two points"] == ((0, 0, 1), ((2, 2),))
    assert values["sphere", "two points"] == ((0, 0, 1, 1), ())


def test_acyclic_link_removes_a_vertex_nothing_dominates(monkeypatch):
    # on the whole vertex set of LINK_PATH no vertex is isolated or
    # dominated, but the link of 6 is the path 0-2-1-4, acyclic: the whole
    # set is no core, and every result and table is exact
    c = clique_complex(LINK_PATH)
    whole = (1 << c.n) - 1
    faces = brute_face_masks(c)
    assert c.labels == tuple("0123456") and not brute_dominated_vertices(faces, whole)
    assert all(any(f.bit_count() == 2 and f >> u & 1 for f in faces) for u in range(c.n))
    assert brute_removable_by_link(faces, whole) >= {1 << 6}
    cores, _ = count_cores(monkeypatch)
    results = betti._Results()
    res = betti._subset_results(c.facets, c.n, results)
    assert whole not in cores
    for w in range(whole + 1):
        dims, torsion = results.values[res[w]]
        expected = brute_reduced_dims({f for f in faces if f & w == f})
        assert list(dims) + [0] * (len(expected) - len(dims)) == expected and not torsion, w
    # rp2 is acyclic over Q but not over Z, so a link like it keeps its vertex
    rp2 = betti._Results()
    rid = betti._subset_results(RP2.facets, RP2.n, rp2)[-1]
    assert not any(rp2.values[rid][0]) and rp2.support[rid]
    for field in (FieldSpec.prime(2), FieldSpec.prime(3), QQ):
        assert graded_betti(c, field).as_dict() == brute_betti(c, field.p), field


# a 12-vertex facet and three triangles through z: most link restrictions
# are simplices or cones, and a simplex on 11 vertices has 2,048 faces
BIG = complex_from_facets(
    [[f"a{i:02}" for i in range(12)], ["a00", "z", "a01"], ["z", "a02", "a03"], ["a04", "z", "a05"]]
)


def test_face_bitmap_matches_brute_force(monkeypatch):
    # byte m of the bitmap is 1 iff m lies in a facet, on random complexes,
    # torsion, a 12- and a 16-vertex facet, dense Alexander duals and the
    # empty complex, whose only face is the empty one; the flag sweep
    # never builds it
    rnd = random.Random(6017)
    complexes = [random_complex(rnd, max_n=8, max_facets=rnd.choice([6, 10])) for _ in range(40)]
    complexes += [RP2, suspension(RP2), BIG, Complex((), (0,))]
    complexes.append(
        complex_from_facets([[f"a{i:02}" for i in range(16)], ["a00", "z", "a01"], ["z", "a02", "a03"], ["a04", "z", "a05"]])
    )
    while len(complexes) < 55:
        dual = alexander_dual(random_complex(rnd, max_n=8, max_facets=rnd.choice([4, 6]), max_size=4))[0]
        if dual.n:  # not the empty face alone
            complexes.append(dual)
    for c in complexes:
        face = betti._faces(c.facets, c.n)
        assert len(face) == 1 << c.n and {m for m in range(1 << c.n) if face[m]} == brute_face_masks(c), c.facets
    assert betti._faces(Complex((), (0,)).facets, 0) == b"\x01"

    def refuse(masks, n):
        raise AssertionError("the flag sweep built the face bitmap")

    monkeypatch.setattr(betti, "_faces", refuse)
    for g in corpus_graphs(50, 9, 7):
        graded_betti(clique_complex(g))


def test_non_flag_sweep_enumerates_no_faces(monkeypatch):
    # off flag complexes the link's simplex test reads a bitmap of 2^n
    # bytes, built by n passes over the whole array without listing faces;
    # the split reads facets and unions of facets, and a core of a link
    # restriction the traces of facets, never the face set, which a large
    # facet makes huge
    fields = (FieldSpec.prime(2), QQ)
    cored = {(c, field): brute_betti(c, field.p) for c in (RP2, suspension(RP2)) for field in fields}
    big = {field: graded_betti(BIG, field).as_dict() for field in fields}

    def refuse(facets):
        raise AssertionError("the sweep enumerated faces")

    orig = simplicial.face_masks
    holders = sorted(name for name, module in sys.modules.items() if name.split(".")[0] == "srbetti" and getattr(module, "face_masks", None) is orig)
    assert holders == ["srbetti.homology", "srbetti.simplicial"]
    # rp2 and its suspension have cores, and a core's quotient basis lists
    # its faces by design, so homology keeps face_masks for them
    for name in holders:
        if name != "srbetti.homology":
            monkeypatch.setattr(sys.modules[name], "face_masks", refuse)
    for (c, field), table in cored.items():
        assert graded_betti(c, field).as_dict() == table, (c.facets, field)
    # BIG's one core is the empty subset, which lists no faces: refused everywhere
    monkeypatch.setattr(homology, "face_masks", refuse)
    assert all(sys.modules[name].face_masks is refuse for name in holders)
    for field, table in big.items():
        assert graded_betti(BIG, field).as_dict() == table, field


def test_link_results_match_brute_force(monkeypatch):
    # for every face sigma of 1 to 3 vertices and every s inside N(sigma),
    # ascending, with the star records of one sweep per sigma, the link
    # restriction's result gives over Q, GF(2) and GF(3) the reduced
    # homology the oracle computes from its faces {F inside s : F + sigma a
    # face}.  What the oracle sees of it decides the rule: a simplex is not
    # memoised and eliminates nothing, a restriction that some vertex x
    # splits is split, reading the link of x from the link of sigma + x,
    # and only a core is eliminated.  A cone that is no simplex is split.
    # Alexander duals of small random complexes are dense and non-flag.
    # Equal face sets up to an order-preserving relabeling share one
    # oracle call; on BIG s has at most 9 vertices, and 4 off a vertex
    # sigma, as the dense ranks of simplices on 10 and 11 vertices take the
    # oracle 9 s more and its 286 larger faces each meet hundreds of
    # restrictions
    rnd = random.Random(6016)
    randoms = []
    while len(randoms) < 40:
        c = random_complex(rnd, max_n=8, max_facets=rnd.choice([6, 10]), max_size=4)
        if _kind(c) != "flag":
            randoms.append(c)
    duals = []
    while len(duals) < 10:
        dual = alexander_dual(random_complex(rnd, max_n=8, max_facets=rnd.choice([4, 6]), max_size=4))[0]
        if dual.n:  # not the empty face alone
            duals.append(dual)
    visits = count_visits(monkeypatch)
    oracle = {}
    kinds = set()
    for c in [BIG, RP2, suspension(RP2), TORUS, *randoms, *duals]:
        faces = brute_face_masks(c)
        face = betti._faces(c.facets, c.n)
        for sigma in (f for f in faces if 0 < f.bit_count() <= 3):
            fs = [f for f in c.facets if f & sigma == sigma]
            nbrs = reduce(or_, fs) ^ sigma
            cap = c.n if c is not BIG else 9 if sigma & sigma - 1 == 0 else 4
            stars, results = {sigma: ({}, fs, nbrs | sigma)}, betti._Results()
            for s in range(1, nbrs + 1):
                if s & nbrs != s or s.bit_count() > cap:
                    continue
                visits.clear()
                dims, torsion = results.values[betti._link_result(sigma, s, face, stars, results)]
                # the subsets of s, the i-th vertex of s relabeled i
                subsets = [0]
                for v in bits(s):
                    subsets += [f | 1 << v for f in subsets]
                link = frozenset(i for i, f in enumerate(subsets) if f | sigma in faces)
                if link not in oracle:
                    ys = [1 << y for y in range(s.bit_count())]
                    whole = sum(ys)
                    kind, past, cone = "core", False, any(all(f | y in link for f in link) for y in ys)
                    if whole in link:
                        kind = "simplex"
                    elif split := brute_split_vertices(set(link), whole):
                        # past the collapses: no vertex is isolated or
                        # dominated, and the link of the lowest x that
                        # splits is neither empty nor acyclic
                        kind = "split"
                        x = min(split)
                        isolated = any({f for f in link if f & y} == {y} for y in ys)
                        x_link = frozenset(f ^ x for f in link if f & x)
                        past = not isolated and not brute_dominated_vertices(set(link), whole)
                        past = past and x_link != {0} and bool(brute_integral_support(x_link)[0])
                    oracle[link] = kind, past, cone, [brute_reduced_dims(set(link), p) for p in (None, 2, 3)]
                kind, past, cone, expected = oracle[link]
                for p, exp in zip((None, 2, 3), expected):
                    got = list(dims) + [0] * (len(exp) + 2)
                    for k in torsion_shift(torsion, p):
                        got[k] += 1
                    assert got[: len(exp)] == exp and not any(got[len(exp) :]), (c.facets, sigma, s, p)
                # A, s minus x, is memoised; a link of sigma + x may
                # eliminate cores of its own, on fewer vertices than s
                assert (s not in stars[sigma][0], visits.count(s)) == (kind == "simplex", kind == "core"), (c.facets, sigma, s)
                assert kind != "simplex" or not visits, (c.facets, sigma, s)
                kinds.add((kind, past, cone, bool(torsion)))
    assert {kind for kind, _, _, _ in kinds} == {"simplex", "split", "core"}
    assert any(kind == "split" and past for kind, past, _, _ in kinds) and ("core", False, False, True) in kinds
    assert any(kind == "split" and cone for kind, _, cone, _ in kinds)


def test_first_syzygies_count_minimal_non_faces():
    # degree-j entries in homological degree 1 are exactly the cardinality-j
    # minimal generators of the face ideal
    rnd = random.Random(6003)
    kinds = set()
    for _ in range(60):
        c = random_complex(rnd, max_n=6)
        t = graded_betti(c)
        by_size = {}
        for tokens in minimal_non_faces(c):
            by_size[len(tokens)] = by_size.get(len(tokens), 0) + 1
        got = {j: v for i, j, v in t.cells if i == 1}
        assert got == by_size, c.facets
        kinds.add(classify(t).kind)
    assert kinds == {"linear", "general"}


def test_flag_projective_plane_has_torsion():
    # no flag complex on 10 or fewer vertices has torsion (Katzman 2006),
    # so flag torsion needs a complex like FLAG_RP2: its tables over GF(2),
    # GF(3) and Q are the oracle's, its torsion is 2 in H_1 of the whole
    # set, and its suspension, also flag, carries it one degree up with the
    # table of a tensor product with k[x, y]/(xy).  The whole set is a core
    # (each link is a circle, each A a Moebius band), so its torsion comes
    # from elimination; a larger complex carries it through a split
    assert (FLAG_RP2.n, len(FLAG_RP2.facets), _kind(FLAG_RP2)) == (12, 22, "flag")
    fields = (FieldSpec.prime(2), FieldSpec.prime(3), QQ)
    tables = {field: graded_betti(FLAG_RP2, field) for field in fields}
    for field, table in tables.items():
        assert table.as_dict() == brute_betti(FLAG_RP2, field.p), field
        assert table.torsion == (((12, ((2, 2),)), 1),) and classify(table).kind == "general", field
    assert tables[fields[0]].cells != tables[fields[2]].cells
    assert tables[fields[1]].cells == tables[fields[2]].cells
    # a path a-p-b between two vertices that are no edge keeps it flag and
    # adds a free loop; on the whole set only p splits, past a two-point
    # link, and carries rp2's torsion up
    faces = brute_face_masks(FLAG_RP2)
    assert not brute_split_vertices(faces, (1 << FLAG_RP2.n) - 1)
    a, b = next(pair for pair in combinations(range(FLAG_RP2.n), 2) if 1 << pair[0] | 1 << pair[1] not in faces)
    with_path = _with(FLAG_RP2, (FLAG_RP2.labels[a], "p"), ("p", FLAG_RP2.labels[b]))
    results = betti._Results()
    whole = results.values[betti._subset_results(with_path.facets, with_path.n, results)[-1]]
    assert _kind(with_path) == "flag" and whole == ((0, 0, 1), ((2, 2),))
    faces = brute_face_masks(with_path)
    assert brute_split_vertices(faces, (1 << with_path.n) - 1) == {1 << with_path.labels.index("p")}
    for field in fields:
        assert graded_betti(with_path, field).torsion == (((12, ((2, 2),)), 1), ((13, ((2, 2),)), 1)), field
    suspended = suspension(FLAG_RP2)
    assert _kind(suspended) == "flag"
    for field, table in tables.items():
        up = graded_betti(suspended, field)
        assert up.torsion == (((12, ((2, 2),)), 1), ((14, ((3, 2),)), 1)), field
        assert up.as_dict() == betti_product(table, BettiTable(((0, 0, 1), (1, 2, 1)), 2, field)), field


def test_field_dependence_on_projective_plane():
    rp2 = read_complex(fixture_path("rp2.cplx"))
    table_big = graded_betti(rp2, GF_DEFAULT)
    table_two = graded_betti(rp2, FieldSpec.prime(2))
    assert table_big.cells != table_two.cells
    assert table_big.pdim == 3 and table_two.pdim == 4
    # over a field of characteristic other than 2 the resolution is 3-linear
    assert classify(table_big).kind == "linear" and classify(table_big).t == 3
    assert classify(table_two).kind == "general"
