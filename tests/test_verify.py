"""Verification reports, the seeded corpus, and determinism."""

import json
import random
import sys
from functools import reduce
from operator import or_

import pytest

from helpers import brute_maximal_cliques, flag_subdivision
from srbetti import (
    GF_DEFAULT,
    QQ,
    Complex,
    FieldSpec,
    Graph,
    ResolutionShape,
    TooManyVerticesError,
    clique_complex,
    complete_graph,
    complex_from_facets,
    fingerprint,
    fixture_path,
    froberg_exhaustive,
    graded_betti,
    graph_from_edges,
    multiplicity,
    read_complex,
    read_graph,
    verify_chordal_corpus,
    verify_complex,
)
from srbetti import betti, graphs, verify
from srbetti.betti import _Lockstep
from srbetti.graphs import maximal_cliques
from srbetti.verify import CHECK_NAMES, corpus_graphs, dumps_report

C4 = complex_from_facets([["1", "2"], ["2", "3"], ["3", "4"], ["1", "4"]])
MIXED = complex_from_facets(
    [["1", "3", "4"], ["1", "3", "5"], ["1", "4", "5"], ["2", "3", "4"], ["2", "3", "5"], ["2", "4", "5"]]
)
FLAG_RP2 = flag_subdivision(read_complex(fixture_path("rp2.cplx")), 6)


def test_report_c4():
    rep = verify_complex(C4)
    assert rep.shape.kind == "pure"
    assert rep.match == (True, True)
    assert multiplicity(rep.h) == rep.f.entries[-1] == 4
    assert rep.checks()["multiplicity"]
    assert rep.series_residual == ()
    assert rep.bound_verdicts == (True, True)
    assert rep.relation_residuals is None  # pure but not linear
    assert rep.pdim == 2 and rep.codim == 2
    assert rep.char_zero_agrees is True
    assert rep.all_identities_hold()


def test_failing_closed_form_shows_its_numbers(monkeypatch):
    # C4's table with the wrong degrees: the closed form's values are
    # reported, and the one <= 0 fails the comparison
    wrong = ResolutionShape("pure", (3, 4), (2, 1))
    monkeypatch.setattr(verify, "classify", lambda table: wrong)
    rep = verify_complex(C4)
    assert rep.formula_betti == (0, 1)
    assert rep.match == (False, True)
    assert not rep.all_identities_hold()
    assert json.loads(dumps_report(rep.to_json_dict()))["formula_betti"] == ["0", "1"]


def test_report_full_simplex():
    rep = verify_complex(clique_complex(complete_graph(3)))
    assert rep.shape.kind == "trivial"
    assert rep.shape.betti is None and rep.formula_betti is None
    assert rep.series_residual is None and rep.bound_verdicts is None
    assert multiplicity(rep.h) == rep.f.entries[-1] == 1
    assert rep.checks()["multiplicity"]
    assert rep.all_identities_hold()


def test_report_general_shape():
    rep = verify_complex(MIXED)
    assert rep.shape.kind == "general"
    assert rep.shape.betti is None
    assert rep.formula_betti is None and rep.match is None
    assert rep.series_residual is None
    assert rep.checks()["multiplicity"]
    assert rep.all_identities_hold()


def test_report_linear_shape_has_relations():
    g = corpus_graphs(5, 8, 21)[0]
    rep = verify_complex(clique_complex(g))
    assert rep.shape.kind in ("linear", "trivial")
    if rep.shape.kind == "linear":
        assert rep.relation_residuals is not None
        assert all(r == 0 for r in rep.relation_residuals)


def test_report_json_schema_round_trip():
    doc = verify_complex(C4).to_json_dict()
    text = dumps_report(doc)
    parsed = json.loads(text)
    assert parsed["schema"] == "srbetti-report/1"
    assert parsed["f_vector"] == ["1", "4", "4"]
    assert parsed["h_vector"] == ["1", "2", "1"]
    assert parsed["betti_table"] == [[0, 0, "1"], [1, 2, "2"], [2, 4, "1"]]
    assert parsed["shape"]["kind"] == "pure"
    assert parsed["resolution_view"] == {"p": 1, "degrees": [2, 4], "betti": ["2", "1"]}
    assert parsed["formula_betti"] == ["2", "1"]
    assert parsed["match"] == [True, True]
    assert parsed["series_residual"] == []
    assert parsed["multiplicity_check"] == {"h_sum": "4", "f_top": "4", "equal": True}
    assert parsed["all_identities_hold"] is True


def test_fingerprint_stability():
    assert fingerprint(C4) == fingerprint(complex_from_facets([["4", "1"], ["3", "2"], ["2", "1"], ["4", "3"]]))
    assert fingerprint(C4) != fingerprint(MIXED)


def test_report_determinism():
    a = dumps_report(verify_complex(C4).to_json_dict())
    b = dumps_report(verify_complex(C4).to_json_dict())
    assert a == b


def test_corpus_all_pass():
    summary = verify_chordal_corpus(50, 9, 7)
    assert summary.gate_passed()
    assert summary.first_failure is None
    assert summary.checks["multiplicity"].passed == 50
    assert summary.checks["froberg_linear"].passed == 50
    assert summary.checks["char_zero"].failed == 0
    # formula checks apply to every non-trivial (pure) corpus member
    tf = summary.checks["theorem_formula"]
    assert tf.failed == 0 and tf.passed + tf.na == 50 and tf.passed > 0


def test_corpus_converse_fixtures_not_linear():
    summary = verify_chordal_corpus(5, 6, 3)
    assert [name for name, _, _ in summary.converse] == ["C4", "C5", "C6"]
    assert all(flag for _, _, flag in summary.converse)
    assert all(kind == "pure" for _, kind, _ in summary.converse)


def test_corpus_honours_n_cap():
    # the corpus for count 3, n_max 9, seed 7 draws graphs on 4 and 6 vertices
    assert sorted(g.n for g in corpus_graphs(3, 9, 7)) == [4, 4, 6]
    with pytest.raises(TooManyVerticesError):
        verify_chordal_corpus(3, 9, 7, n_cap=5)
    assert verify_chordal_corpus(3, 9, 7, n_cap=6).gate_passed()


def test_corpus_deterministic():
    a = verify_chordal_corpus(25, 8, 13)
    b = verify_chordal_corpus(25, 8, 13)
    assert dumps_report(a.to_json_dict()) == dumps_report(b.to_json_dict())


def test_corpus_graphs_draw_is_stable():
    gs = corpus_graphs(10, 9, 7)
    assert len(gs) == 10
    assert all(2 <= g.n <= 9 for g in gs)
    assert corpus_graphs(10, 9, 7) == gs


@pytest.mark.parametrize("count, n_max", [(0, 9), (5, 1)])
def test_corpus_graphs_refuse_an_empty_or_trivial_draw(count, n_max):
    with pytest.raises(ValueError, match="need count >= 1 and n_max >= 2"):
        corpus_graphs(count, n_max, 7)


def test_projective_plane_field_dependence_flagged():
    rp2 = read_complex(fixture_path("rp2.cplx"))
    rep2 = verify_complex(rp2, FieldSpec.prime(2))
    assert rep2.char_zero_agrees is False
    rep_big = verify_complex(rp2, GF_DEFAULT)
    assert rep_big.char_zero_agrees is True
    assert rep_big.table.cells != rep2.table.cells
    # char-0 disagreement is reported but does not invalidate the identity
    # checks run over GF(2) itself
    assert rep2.all_identities_hold()
    checks = rep2.checks()
    assert checks["char_zero"] is False and checks["multiplicity"] is True
    # the verdict is the check table with char_zero left out, on every shape
    cases = {
        "general": rep2,
        "pure": verify_complex(read_complex(fixture_path("c4.cplx")), QQ),
        "linear": verify_complex(clique_complex(read_graph(fixture_path("p3.graph")))),
        "trivial": verify_complex(clique_complex(read_graph(fixture_path("k3.graph")))),
    }
    for kind, rep in cases.items():
        checks = rep.checks()
        assert rep.shape.kind == kind
        assert tuple(checks) == CHECK_NAMES
        gating = [ok for name, ok in checks.items() if name != "char_zero"]
        assert rep.all_identities_hold() == (False not in gating)
        assert (checks["theorem_formula"] is None) == (kind in ("general", "trivial"))
        assert (checks["h_relations"] is None) == (kind != "linear")
    assert cases["pure"].checks()["char_zero"] is None  # over Q


def test_rationals_report_has_no_char_zero_section():
    rep = verify_complex(C4, QQ)
    assert rep.char_zero_agrees is None


# The Froberg sweep steps the extensions of each graph on the first n-1
# vertices, one per neighbour set of the last vertex, in lockstep.


def _pairs(n):
    """Vertex pairs in the sweep's edge-mask bit order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _graph_of_mask(n, mask):
    labels = [str(v + 1) for v in range(n)]
    edges = [(labels[i], labels[j]) for b, (i, j) in enumerate(_pairs(n)) if (mask >> b) & 1]
    return graph_from_edges(edges, vertices=labels)


def _complex_of_adj(adj):
    return clique_complex(Graph(tuple(f"{v + 1:02}" for v in range(len(adj))), tuple(adj)))


def _tables_by_neighbours(base, field, lockstep=None):
    """The extension tables of the graph with adjacency base, indexed by the
    neighbour set of the new vertex, from `lockstep` (shared across bases
    as the sweep shares it, so its pair memo is read) or a fresh one."""
    lockstep = lockstep or _Lockstep(len(base), field)
    return lockstep.tables(base)


def _all_extension_tables(n, field):
    """(adjacency, table) of every graph on n labeled vertices, by base,
    from one lockstep, as `froberg_exhaustive` sweeps them."""
    last = 1 << (n - 1)
    lockstep = _Lockstep(n - 1, field)
    for mask in range(1 << len(_pairs(n - 1))):
        base = _graph_of_mask(n - 1, mask).adj
        for nbrs, table in enumerate(_tables_by_neighbours(base, field, lockstep)):
            adj = [row | last if (nbrs >> v) & 1 else row for v, row in enumerate(base)] + [nbrs]
            yield adj, table


@pytest.mark.parametrize("field", [FieldSpec.prime(2), QQ])
def test_extension_tables_equal_graded_betti(field):
    for n in range(1, 6):
        tables = list(_all_extension_tables(n, field))
        assert len(tables) == 1 << len(_pairs(n))
        for adj, table in tables:
            # the whole table, torsion included
            assert table == graded_betti(_complex_of_adj(adj), field), adj
    by_base = {}
    for mask in random.Random(1515).sample(range(1 << 15), 500):
        g = _graph_of_mask(6, mask)
        by_base.setdefault(tuple(row & 31 for row in g.adj[:-1]), []).append(g)
    lockstep = _Lockstep(5, field)
    for base, graphs in by_base.items():
        tables = _tables_by_neighbours(base, field, lockstep)
        # the rows the memo hands this base are the rows a fresh sweep computes
        assert tables == _tables_by_neighbours(base, field), base
        for g in graphs:
            assert tables[g.adj[-1]] == graded_betti(clique_complex(g), field), g.adj


def _adjacency(c: Complex) -> list[int]:
    """The 1-skeleton of c as adjacency masks."""
    adj = [0] * c.n
    for f in c.facets:
        for v in range(c.n):
            if f >> v & 1:
                adj[v] |= f ^ 1 << v
    return adj


@pytest.mark.parametrize("field", [FieldSpec.prime(2), QQ])
def test_extension_tables_refuse_torsion(monkeypatch, field):
    # no flag complex on 10 or fewer vertices has torsion (Katzman 2006).
    # FLAG_RP2, the projective plane made flag on 12 vertices, is the
    # extension of the Moebius band on its first 11 by the last vertex with
    # its neighbours: its torsion ((2, 2) on the whole set) comes from the
    # pairs through the new vertex, so the band gets no tables.  The band
    # less the edge 1-2 shares most of the memo's rows and has no torsion:
    # its tables, on a seeded sample of its extensions, are graded_betti's
    adj = _adjacency(FLAG_RP2)
    k = FLAG_RP2.n - 1
    base = [row & (1 << k) - 1 for row in adj[:k]]
    eliminated = []
    real_dims = betti.reduced_dims_from_facets
    monkeypatch.setattr(betti, "reduced_dims_from_facets", lambda masks: eliminated.append(masks) or real_dims(masks))
    bases = []
    real_pairs = betti._pair_results

    def pair_results(adj, sweep):
        out = real_pairs(adj, sweep)
        bases.append(out[0])
        return out

    monkeypatch.setattr(betti, "_pair_results", pair_results)
    lockstep = _Lockstep(k, field)
    assert _tables_by_neighbours(base, field, lockstep) is None
    # the sweep eliminates the empty complex and 16 pair cores, each on the
    # maximal cliques of the graph on its W + v: the Moebius band's edges
    # inside W and v joined to N', the neighbours of v in the cliques
    assert len(eliminated) == 17 and eliminated[0] == [0]
    labels = tuple(f"{v:02}" for v in range(k + 1))
    for maximal in eliminated[1:]:
        s = reduce(or_, maximal)
        nbrs = reduce(or_, [m for m in maximal if m >> k & 1]) ^ 1 << k
        extension = [row | 1 << k if nbrs >> v & 1 else row for v, row in enumerate(base)] + [nbrs]
        on_s = Graph(labels, tuple(row & s if s >> v & 1 else 0 for v, row in enumerate(extension)))
        assert s >> k & 1 and set(maximal) == {m for m in brute_maximal_cliques(on_s) if m & s}, maximal
    # each base result read off a pair row is the one a sweep of the base's
    # clique complex finds
    assert bases[-1] == betti._subset_results(maximal_cliques(base), k, lockstep.results)
    assert base[1] >> 2 & 1
    base[1] ^= 1 << 2
    base[2] ^= 1 << 1
    tables = _tables_by_neighbours(base, field, lockstep)
    for nbrs in random.Random(1517).sample(range(1 << k), 12):
        extension = [row | 1 << k if nbrs >> v & 1 else row for v, row in enumerate(base)] + [nbrs]
        assert tables[nbrs] == graded_betti(_complex_of_adj(extension), field), nbrs


def test_froberg_sweep_visits(monkeypatch):
    # per graph on 4 vertices: each pair of a subset W with a neighbour set
    # of vertex 4 inside W, 3^4 in all, and no sweep of its subsets: each
    # subset's result is a pair's.  2,420 of those 5,184 pairs are not
    # acyclic.  A pair's result depends on W and the base edges inside W,
    # so the rows of the 49 graphs on a W short of all 4 vertices are
    # computed once each (313 pairs), and only the 16 pairs of the whole
    # base are computed for every base: 1,337 computed pairs.  The split
    # removes a vertex of every nonempty subset and pair, so the one core is
    # the empty subset, registered once per sweep.  The sweep takes its
    # bases as adjacency masks and runs no clique search under any name
    subsets = []
    pairs = []
    computed = []
    cores = []
    real_pairs, real_row = betti._pair_results, betti._pair_row
    real_core = betti._Results.core

    def pair_results(adj, lockstep):
        base, out = real_pairs(adj, lockstep)
        k, tri = lockstep.k, lockstep.tri
        indices = (tri[w] + tri[nbrs] for w in range(1 << k) for nbrs in range(1 << k) if nbrs & w == nbrs)
        cells = (lockstep.results.values[out[i]] for i in indices)
        pairs.extend(any(dims) or bool(torsion) for dims, torsion in cells)
        return base, out

    def pair_row(*args):
        row = real_row(*args)
        computed.append(len(row))
        return row

    def core(self, maximal):
        cores.append(reduce(or_, maximal))
        return real_core(self, maximal)

    def refuse(adj):
        raise AssertionError("the sweep searched a graph for its maximal cliques")

    searchers = {name for name, module in sys.modules.items() if name.startswith("srbetti")}
    searchers = {name for name in searchers if hasattr(sys.modules[name], "maximal_cliques")}
    assert searchers >= {"srbetti", "srbetti.graphs", "srbetti.betti"} and "srbetti.verify" not in searchers
    for name in searchers:
        monkeypatch.setattr(sys.modules[name], "maximal_cliques", refuse)
    monkeypatch.setattr(betti, "_subset_results", lambda *args: subsets.append(args))
    monkeypatch.setattr(betti, "_pair_results", pair_results)
    monkeypatch.setattr(betti, "_pair_row", pair_row)
    monkeypatch.setattr(betti._Results, "core", core)
    assert froberg_exhaustive(5).passed
    assert subsets == []
    assert len(pairs) == 2 ** 6 * 3 ** 4 == 5184
    assert sum(pairs) == 2420  # not acyclic
    assert sum(computed) == 313 + 2 ** 6 * 2 ** 4 == 1337
    assert len([w for w in cores if w & 1 << 4]) == 0 and cores == [0]


def test_froberg_sweep_builds_each_distinct_table_once(monkeypatch):
    # extensions with equal sums share one table across all the bases of a
    # sweep: the 1,024 graphs on 5 vertices build and classify 23
    classified, tables = [], []
    real_classify, real_tables = verify.classify, betti._Lockstep.tables

    def lockstep_tables(self, cliques):
        out = real_tables(self, cliques)
        tables.extend(out)
        return out

    monkeypatch.setattr(verify, "classify", lambda table: classified.append(table) or real_classify(table))
    monkeypatch.setattr(betti._Lockstep, "tables", lockstep_tables)
    assert froberg_exhaustive(5).passed
    # every table is held in `tables`, so distinct ids are distinct builds
    assert len(tables) == 1024 and len({id(table) for table in tables}) == len(classified) == 23
    first = {}
    for table in tables:
        assert first.setdefault(table, table) is table
    assert len(first) == 23


def test_froberg_sweep_cores_are_the_sweep_cores(monkeypatch):
    # the Froberg sweep takes each pair from the base graph's adjacency, and
    # a sweep of each graph on 5 vertices takes its clique complex from the
    # graph itself; with the split the only core of either is the empty
    # subset, which each sweep eliminates once and nothing else
    calls = []
    real = betti.reduced_dims_from_facets

    def only_empty(facets):
        assert facets == [0], facets
        calls.append(facets)
        return real(facets)

    monkeypatch.setattr(betti, "reduced_dims_from_facets", only_empty)
    assert froberg_exhaustive(5).passed
    assert len(calls) == 1
    for mask in range(1 << len(_pairs(5))):
        graded_betti(clique_complex(_graph_of_mask(5, mask)), QQ)
    assert len(calls) == 1 + 1024


def test_froberg_mismatches_are_edge_masks(monkeypatch):
    real = verify.chordal_extensions
    monkeypatch.setattr(verify, "chordal_extensions", lambda base: [not chordal for chordal in real(base)])
    result = froberg_exhaustive(4)
    assert result.checked == 64
    assert result.mismatches == tuple(range(64))


def test_froberg_reports_every_extension_of_a_base_with_torsion(monkeypatch):
    # a base whose results have torsion gets no tables, and each of its 8
    # extensions on 4 vertices is a mismatch, chordal or not; the base is
    # the path 1-2-3, whose extensions are of both kinds
    path = [0b010, 0b101, 0b010]
    real = betti._Lockstep.tables
    monkeypatch.setattr(betti._Lockstep, "tables", lambda self, adj: None if adj == path else real(self, adj))
    labelled = _pairs(4)
    base_mask = (1 << labelled.index((0, 1))) | (1 << labelled.index((1, 2)))
    expected = sorted(base_mask | sum(1 << labelled.index((v, 3)) for v in range(3) if nbrs >> v & 1) for nbrs in range(8))
    result = froberg_exhaustive(4)
    assert result.checked == 64
    assert result.mismatches == tuple(expected) and len(set(expected)) == 8


@pytest.mark.parametrize("path", [("1", "2", "3"), ("2", "3", "4"), ("1", "4", "3")])
def test_froberg_reports_the_edge_mask_of_one_mismatch(monkeypatch, path):
    # only base edges, one base edge and one edge of the last vertex, and
    # only edges of the last vertex
    edges = sorted(tuple(sorted(e)) for e in zip(path, path[1:]))
    real = verify.chordal_extensions

    def flipped(base):
        out = real(base)
        last = 1 << len(base)
        for nbrs in range(last):
            adj = [row | last if (nbrs >> v) & 1 else row for v, row in enumerate(base)] + [nbrs]
            adj_edges = [(str(i + 1), str(j + 1)) for i, j in _pairs(len(adj)) if (adj[i] >> j) & 1]
            if adj_edges == edges:
                out[nbrs] = not out[nbrs]
        return out

    monkeypatch.setattr(verify, "chordal_extensions", flipped)
    labelled = [(str(i + 1), str(j + 1)) for i, j in _pairs(4)]
    assert froberg_exhaustive(4).mismatches == (sum(1 << labelled.index(e) for e in edges),)


def test_froberg_sweep_decides_chordality_once_per_base(monkeypatch):
    # one chordality test per base graph on 4 vertices decides all 32 of
    # its extensions, not one test per graph on 5 vertices
    calls = []
    real = graphs.is_chordal

    def is_chordal(adj):
        calls.append(len(adj))
        return real(adj)

    monkeypatch.setattr(graphs, "is_chordal", is_chordal)
    assert froberg_exhaustive(5).passed
    assert calls == [4] * 64


def test_froberg_refuses_more_vertices_than_the_cap(monkeypatch):
    # the sweep carries no torsion, which Katzman's theorem rules out on 10
    # or fewer vertices only; 11 is refused before any sweep
    def refuse(*args):
        raise AssertionError("the refused Froberg sweep started")

    for name in ("chordal_extensions", "_Lockstep"):
        monkeypatch.setattr(verify, name, refuse)
    with pytest.raises(TooManyVerticesError, match="11 vertices exceeds the Froberg sweep cap 10"):
        froberg_exhaustive(11)


def test_froberg_sweep_builds_no_graph_or_complex(monkeypatch):
    # every graph of the sweep and its clique complex are masks built
    # correctly by construction, so no validated object is built for them
    def refuse(cls, *args):
        raise AssertionError("the Froberg sweep built a Graph or a Complex")

    monkeypatch.setattr(Graph, "__new__", refuse)
    monkeypatch.setattr(Complex, "__new__", refuse)
    result = froberg_exhaustive(5)
    assert (result.checked, result.mismatches) == (1024, ())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_froberg_verdict_does_not_depend_on_the_field(n):
    # the tables only carry the field, and with no torsion (Katzman) a
    # clique complex's table is the same over every field
    fields = (FieldSpec.prime(2), FieldSpec.prime(3), GF_DEFAULT, QQ)
    results = {froberg_exhaustive(n, field) for field in fields}
    assert results == {verify.SweepResult(n, 2 ** (n * (n - 1) // 2), ())}


@pytest.mark.parametrize("n", [0, -1])
def test_froberg_refuses_fewer_than_one_vertex(n):
    with pytest.raises(ValueError, match="at least 1 vertex"):
        froberg_exhaustive(n)
