"""Verification reports, the seeded corpus, and determinism."""

import json
import random
import sys
from functools import reduce
from operator import or_

import pytest

from helpers import brute_face_masks, brute_is_chordal, brute_reduced_dims
from sweep_helpers import record_work
from srbetti import (
    GF_DEFAULT,
    QQ,
    BettiTable,
    Complex,
    FieldSpec,
    Graph,
    ResolutionShape,
    TooManyVerticesError,
    classify,
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
from srbetti.verify import corpus_graphs, dumps_report

C4 = complex_from_facets([["1", "2"], ["2", "3"], ["3", "4"], ["1", "4"]])
MIXED = complex_from_facets(
    [["1", "3", "4"], ["1", "3", "5"], ["1", "4", "5"], ["2", "3", "4"], ["2", "3", "5"], ["2", "4", "5"]]
)


def test_report_c4():
    rep = verify_complex(C4)
    assert rep.shape.kind == "pure"
    assert rep.match == (True, True)
    assert multiplicity(rep.h) == rep.f.entries[-1] == 4
    assert rep.checks()["multiplicity"]
    assert rep.series_residual == ()
    assert rep.bound_verdicts == (True, True)
    assert rep.relation_residuals is None  # pure but not linear
    assert rep.table.pdim == 2 and rep.codim == 2
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


def test_corpus_refuses_n_max_above_sweep_cap(monkeypatch):
    # refused before any graph is swept, not at the first one over the cap
    def refuse(*_):
        raise AssertionError("a corpus graph was swept before n_max was checked")

    monkeypatch.setattr(verify, "graded_betti", refuse)
    with pytest.raises(TooManyVerticesError, match="^21 vertices exceeds the sweep cap 20$"):
        verify_chordal_corpus(3, 21, 7)
    graphs_at_cap = corpus_graphs(3, 20, 7)
    assert len(graphs_at_cap) == 3 and all(2 <= g.n <= 20 for g in graphs_at_cap)


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
        assert tuple(checks) == (
            "theorem_formula",
            "multiplicity",
            "series_identity",
            "h_relations",
            "lower_bound",
            "froberg_linear",
            "pdim_codim",
            "char_zero",
        )
        gating = [ok for name, ok in checks.items() if name != "char_zero"]
        assert rep.all_identities_hold() == (False not in gating)
        assert (checks["theorem_formula"] is None) == (kind in ("general", "trivial"))
        assert (checks["h_relations"] is None) == (kind != "linear")
    assert cases["pure"].checks()["char_zero"] is None  # over Q


def test_rationals_report_has_no_char_zero_section():
    rep = verify_complex(C4, QQ)
    assert rep.char_zero_agrees is None


# The Froberg sweep reads each graph's flags off `betti._clique_flags`, which
# sweeps every graph on every vertex subset once and ORs each graph's own
# bits over its induced subgraphs on bit planes.


def _pairs(n):
    """Vertex pairs in the sweep's edge-mask bit order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _graph_of_mask(n, mask):
    labels = [str(v + 1) for v in range(n)]
    edges = [(labels[i], labels[j]) for b, (i, j) in enumerate(_pairs(n)) if (mask >> b) & 1]
    return graph_from_edges(edges, vertices=labels)


def _check_flags(n, mask, flags, field):
    """The flags of the graph with this edge mask: no torsion, and bit 0
    clear iff its table over the field is linear or trivial; on 4 or fewer
    vertices bit 0 is also whether a restriction's homology over the field,
    by brute force, lies above reduced degree 0."""
    c = clique_complex(_graph_of_mask(n, mask))
    assert not flags[mask] & 2, mask
    assert (not flags[mask] & 1) == classify(graded_betti(c, field)).is_linear_or_trivial, (n, mask)
    if n <= 4:
        faces = brute_face_masks(c)
        restrictions = ({f for f in faces if f & w == f} for w in range(1 << n))
        assert flags[mask] & 1 == any(any(brute_reduced_dims(r, field.p)[2:]) for r in restrictions), (n, mask)


@pytest.mark.parametrize("field", [FieldSpec.prime(2), QQ])
def test_clique_flags_bits_0_and_1_match_graded_betti(field):
    # every graph on 5 or fewer vertices, and a sample on 6
    for n in range(1, 6):
        flags = betti._clique_flags(n)
        assert len(flags) == 2 ** len(_pairs(n))
        for mask in range(len(flags)):
            _check_flags(n, mask, flags, field)
    flags = betti._clique_flags(6)
    for mask in random.Random(1515).sample(range(1 << 15), 500):
        _check_flags(6, mask, flags, field)


@pytest.mark.parametrize("n, chordal", [(1, 1), (2, 2), (3, 8), (4, 61), (5, 822), (6, 18154)])
def test_clique_flags_bit_2_is_chordality(n, chordal):
    # bit 2 of a graph's flags is set iff the graph is not chordal: against
    # the induced-cycle definition on 5 or fewer vertices, and against
    # `graphs.is_chordal` on all 32,768 graphs on 6
    flags = betti._clique_flags(n)
    for mask, f in enumerate(flags):
        g = _graph_of_mask(n, mask)
        assert (not f & 4) == (brute_is_chordal(g) if n <= 5 else graphs.is_chordal(g.adj)[0]), mask
    assert sum(not f & 4 for f in flags) == chordal


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_induced_or_is_the_or_over_every_vertex_set(n):
    # the closure of each plane, bit e the OR over every vertex set W of
    # the bit at e & (the edges inside W), against that definition on
    # seeded random planes, from one set bit to a quarter of them, so that
    # no theorem shapes which graphs carry a bit.  The empty graph carries
    # none, or every graph would inherit it
    pairs = _pairs(n)
    size = 1 << len(pairs)
    rng = random.Random(4500 + n)
    planes = [reduce(or_, [1 << rng.randrange(size) for _ in range(count)], 0) & ~1 for count in (1, size // 16 + 1, size // 4 + 1)]
    inside = [sum(1 << b for b, (i, j) in enumerate(pairs) if w >> i & w >> j & 1) for w in range(1 << n)]
    expected = [sum(any(p >> (e & edges) & 1 for edges in inside) << e for e in range(size)) for p in planes]
    edge = {pair: sum(1 << e for e in range(size) if e >> b & 1) for b, pair in enumerate(pairs)}
    assert betti._induced_or(planes, edge) == expected
    if n >= 3:  # the closure adds bits, but not to every graph
        assert all(p < q < (1 << size) - 2 for p, q in zip(planes[1:], expected[1:]))


def test_froberg_sweep_visits(monkeypatch):
    # the sweep computes each graph on each subset once from graphs it
    # swept before, and no sweep of a graph's subsets runs.  The split
    # removes a vertex of every nonempty subset, trying the top one first
    # (vertex 0 on all 5 vertices), so the one core is the empty subset,
    # registered once per sweep; the split is tried 831 times for the
    # 1,449 graphs on nonempty subsets, those on all 5 vertices once per
    # pair of A's result and a link's, then where vertex 0 did not split.
    # The sweep runs no clique search under any name
    subsets = []

    def refuse(adj):
        raise AssertionError("the sweep searched a graph for its maximal cliques")

    searchers = {name for name, module in sys.modules.items() if name.startswith("srbetti")}
    searchers = {name for name in searchers if hasattr(sys.modules[name], "maximal_cliques")}
    assert searchers >= {"srbetti", "srbetti.graphs", "srbetti.betti"} and "srbetti.verify" not in searchers
    for name in searchers:
        monkeypatch.setattr(sys.modules[name], "maximal_cliques", refuse)
    monkeypatch.setattr(betti, "_subset_results", lambda *args: subsets.append(args))
    work = record_work(monkeypatch)
    assert froberg_exhaustive(5).passed
    assert subsets == []
    assert work.cores == [0]
    assert len(work.splits) == 831


def test_froberg_sweep_runs_no_chordality_test(monkeypatch):
    # the chordality of every graph on 5 vertices, each of its 32 extensions
    # of a base graph on 4 among them, is bit 2 of the sweep's flags: its own
    # bit, no simplicial vertex but isolated ones, taken for every graph at
    # once from planes of the edges, ORed over its induced subgraphs; no
    # chordality test runs under any name
    calls = []

    def is_chordal(adj):
        calls.append(len(adj))
        raise AssertionError("the sweep tested a graph's chordality")

    testers = {name for name, module in sys.modules.items() if name.startswith("srbetti")}
    testers = {name for name in testers if hasattr(sys.modules[name], "is_chordal")}
    assert testers >= {"srbetti", "srbetti.graphs"} and "srbetti.verify" not in testers
    for name in testers:
        monkeypatch.setattr(sys.modules[name], "is_chordal", is_chordal)
    assert froberg_exhaustive(5).passed
    assert calls == []


def test_froberg_sweep_cores_are_the_sweep_cores(monkeypatch):
    # the Froberg sweep takes each graph from its edge mask, and a sweep of
    # each graph on 5 vertices takes its clique complex from the graph
    # itself; with the split the only core of either is the empty
    # subset, which each sweep eliminates once and nothing else
    work = record_work(monkeypatch)
    assert froberg_exhaustive(5).passed
    assert work.eliminations == [[0]]
    for mask in range(1 << len(_pairs(5))):
        graded_betti(clique_complex(_graph_of_mask(5, mask)), QQ)
    assert work.eliminations == [[0]] * (1 + 1024)


def _flip_chordality(monkeypatch, chosen):
    """Make the sweep's flags call every graph whose edge mask chosen
    accepts chordal if it is not and not chordal if it is (bit 2)."""
    real = verify._clique_flags

    def flipped(n):
        flags = real(n)
        for mask in range(len(flags)):
            if chosen(mask):
                flags[mask] ^= 4
        return flags

    monkeypatch.setattr(verify, "_clique_flags", flipped)


def test_froberg_mismatches_are_edge_masks(monkeypatch):
    _flip_chordality(monkeypatch, lambda mask: True)
    result = froberg_exhaustive(4)
    assert result.checked == 64
    assert result.mismatches == tuple(range(64))


@pytest.mark.parametrize("n", [4, 5])
def test_froberg_reports_each_graph_with_torsion(monkeypatch, n):
    # a graph one of whose restrictions has torsion is a mismatch whatever
    # its chordality, and no other graph is.  With a circle's homology
    # given a torsion, those are the graphs with a restriction whose clique
    # complex has a circle's homology: the graphs with an induced cycle of
    # 4 or more vertices, the non-chordal ones.  On 4 vertices the only
    # such restriction is the whole graph, one of the three 4-cycles; on 5
    # the torsion of a 4-cycle reaches the graphs above it, among them its
    # cone, whose clique complex is contractible
    real = betti._Results.id

    def twisted_circle(self, hom):
        dims, torsion = hom
        circle = tuple(dims[:3]) == (0, 0, 1) and not any(dims[3:]) and not torsion
        return real(self, (dims, ((2, 2),)) if circle else hom)

    monkeypatch.setattr(betti._Results, "id", twisted_circle)
    expected = tuple(mask for mask in range(1 << len(_pairs(n))) if not brute_is_chordal(_graph_of_mask(n, mask)))
    result = froberg_exhaustive(n)
    assert result.checked == 2 ** len(_pairs(n))
    assert result.mismatches == expected
    if n == 4:
        cycles = [[(0, 1), (1, 2), (2, 3), (0, 3)], [(0, 1), (1, 3), (2, 3), (0, 2)], [(0, 2), (1, 2), (1, 3), (0, 3)]]
        assert expected == tuple(sorted(sum(1 << _pairs(4).index(e) for e in c) for c in cycles))
    else:
        cone = sum(1 << _pairs(5).index(e) for e in [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)])
        assert cone in expected and len(expected) == 1024 - 822


@pytest.mark.parametrize("path", [("1", "2", "3"), ("2", "3", "4"), ("1", "4", "3")])
def test_froberg_reports_the_edge_mask_of_one_mismatch(monkeypatch, path):
    # only edges among the first three vertices, one such edge and one
    # edge of the last vertex, and only edges of the last vertex
    edges = sorted(tuple(sorted(e)) for e in zip(path, path[1:]))
    labelled = [(str(i + 1), str(j + 1)) for i, j in _pairs(4)]
    mask = sum(1 << labelled.index(e) for e in edges)
    _flip_chordality(monkeypatch, mask.__eq__)
    assert froberg_exhaustive(4).mismatches == (mask,)


def test_froberg_refuses_more_vertices_than_the_cap(monkeypatch):
    # the sweep's verdicts hold over every field where Katzman's theorem
    # rules out torsion, on 10 or fewer vertices only; 11 is refused before
    # any sweep
    def refuse(*args):
        raise AssertionError("the refused Froberg sweep started")

    monkeypatch.setattr(verify, "_clique_flags", refuse)
    with pytest.raises(TooManyVerticesError, match="11 vertices exceeds the Froberg sweep cap 10"):
        froberg_exhaustive(11)


def test_froberg_sweep_builds_no_graph_or_complex(monkeypatch):
    # every graph of the sweep and its clique complex are masks built
    # correctly by construction, so no validated object is built for them;
    # a verdict reads homology degrees, so no table is built or classified
    def refuse(*args):
        raise AssertionError("the Froberg sweep built a Graph, a Complex or a BettiTable, or classified one")

    for cls in (Graph, Complex, BettiTable):
        monkeypatch.setattr(cls, "__new__", refuse)
    monkeypatch.setattr(verify, "classify", refuse)
    result = froberg_exhaustive(5)
    assert (result.checked, result.mismatches) == (1024, ())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_froberg_verdict_does_not_depend_on_the_field(n):
    # the sweep reads no field: with no torsion (Katzman) a clique
    # complex's table is the same over every field
    fields = (FieldSpec.prime(2), FieldSpec.prime(3), GF_DEFAULT, QQ)
    results = {froberg_exhaustive(n, field) for field in fields}
    assert results == {verify.SweepResult(n, 2 ** (n * (n - 1) // 2), ())}


@pytest.mark.parametrize("n", [0, -1])
def test_froberg_refuses_fewer_than_one_vertex(n):
    with pytest.raises(ValueError, match="at least 1 vertex"):
        froberg_exhaustive(n)
