"""Acceptance suite: one test per criterion, each printing a pass line.

Everything is exact arithmetic, so every comparison below is equality with
tolerance zero.  The corpus is the fixed seeded one (50 chordal graphs on at
most 9 vertices, seed 7) plus the four named fixtures.
"""

import time

import pytest

from helpers import bumped_table
from sweep_helpers import composes_to_zero, reduced_betti
from srbetti import (
    GF_DEFAULT,
    FieldSpec,
    betti_from_h,
    clique_complex,
    complex_from_facets,
    fixture_path,
    froberg_exhaustive,
    graded_betti,
    graph_from_edges,
    multiplicity,
    read_complex,
    verify_complex,
    verify_series_identity,
)
from srbetti.cli import main as cli_main
from srbetti.homology import reduced_dims_from_facets
from srbetti.verify import corpus_graphs

CORPUS_COUNT = 50
CORPUS_NMAX = 9
CORPUS_SEED = 7

TWO_POINTS = complex_from_facets([["a"], ["b"]])
TRIANGLE_BOUNDARY = complex_from_facets([["1", "2"], ["1", "3"], ["2", "3"]])
FOUR_CYCLE = complex_from_facets([["1", "2"], ["2", "3"], ["3", "4"], ["1", "4"]])
P3_CLIQUE = clique_complex(graph_from_edges([("a", "b"), ("b", "c")]))
FIXTURES = [TWO_POINTS, TRIANGLE_BOUNDARY, FOUR_CYCLE, P3_CLIQUE]


@pytest.fixture(scope="module")
def corpus():
    graphs = corpus_graphs(CORPUS_COUNT, CORPUS_NMAX, CORPUS_SEED)
    complexes = FIXTURES + [clique_complex(g) for g in graphs]
    start = time.monotonic()
    reports = [verify_complex(c) for c in complexes]
    oracle_s = time.monotonic() - start
    return graphs, complexes, reports, oracle_s


def test_criterion_1_formula_matches_oracle(corpus):
    # the bound covers the oracle sweep, which the fixture times
    _, complexes, reports, oracle_s = corpus
    start = time.monotonic()
    pure_cases = 0
    for c, rep in zip(complexes, reports):
        if not rep.shape.is_pure:
            continue
        pure_cases += 1
        formula = betti_from_h(rep.h, c.n, rep.shape.degrees)
        assert formula == rep.shape.betti, (c.facets, formula, rep.shape)
    elapsed = oracle_s + time.monotonic() - start
    assert pure_cases >= 4 + 1  # the four fixtures are pure, plus corpus hits
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 1 formula-vs-oracle: PASS ({pure_cases} pure cases, "
        f"{elapsed:.2f}s, {oracle_s:.2f}s of it the oracle sweep)"
    )


def test_criterion_2_multiplicity(corpus):
    _, _, reports, _ = corpus
    for rep in reports:
        assert multiplicity(rep.h) == rep.f.entries[-1]
    print(f"ACCEPTANCE 2 multiplicity = f_(d-1): PASS ({len(reports)}/{len(reports)})")


def test_criterion_3_series_identity_and_mutation(corpus):
    _, complexes, reports, _ = corpus
    checked = 0
    for c, rep in zip(complexes, reports):
        if not rep.shape.is_pure:
            continue
        checked += 1
        assert rep.series_residual == ()
        for k in range(len(rep.table.cells)):
            residual = verify_series_identity(rep.h, bumped_table(rep.table, k))
            assert residual != (), (c.facets, k)
    print(f"ACCEPTANCE 3 series identity + mutation: PASS ({checked} pure cases)")


def test_criterion_4_chordal_relations(corpus):
    # the corpus graphs are chordal; their reports follow the four fixtures
    graphs, _, reports, _ = corpus
    emitted = 0
    for g, rep in zip(graphs, reports[len(FIXTURES):]):
        if rep.shape.kind == "trivial":  # a complete graph: no relations
            continue
        assert rep.shape.t == 2, g.adj  # linear, as every chordal table is
        assert all(r == 0 for r in rep.relation_residuals), g.adj
        emitted += len(rep.relation_residuals)
    assert emitted > 0
    print(f"ACCEPTANCE 4 h-relations on chordal corpus: PASS ({emitted} residuals, all 0)")


def test_criterion_5_lower_bound(corpus):
    _, _, reports, _ = corpus
    checked = 0
    for rep in reports:
        if not rep.shape.is_pure:
            continue
        checked += 1
        assert rep.bound_verdicts is not None and all(rep.bound_verdicts)
    print(f"ACCEPTANCE 5 Betti lower bound: PASS ({checked} pure cases)")


def test_criterion_6_exhaustive_linearity_chordality_sweep():
    start = time.monotonic()
    result = froberg_exhaustive(6)
    elapsed = time.monotonic() - start
    assert result.checked == 32768
    assert result.mismatches == ()
    assert elapsed < 60.0
    print(f"ACCEPTANCE 6 exhaustive 6-vertex sweep: PASS (32768 graphs, 0 exceptions, {elapsed:.2f}s)")


def test_criterion_7_homology_oracle_sanity(corpus):
    _, complexes, _, _ = corpus
    # boundary composition vanishes on every constructed complex
    for c in complexes:
        assert composes_to_zero(c)
    # boundary of the k-simplex is a homology sphere for k = 2..6
    from itertools import combinations

    for k in range(2, 7):
        verts = [str(i) for i in range(1, k + 2)]
        sphere = complex_from_facets([list(s) for s in combinations(verts, k)])
        assert composes_to_zero(sphere)
        assert reduced_betti(sphere, GF_DEFAULT.p) == [0] * k + [1]
    # GF(32003) agrees with Q on every corpus complex: no invariant factor
    # of a boundary map is divisible by 32003
    factors = [t for c in complexes for _, t in reduced_dims_from_facets(c.facets)[1]]
    assert all(t % GF_DEFAULT.p for t in factors)
    # the projective-plane fixture has field-dependent tables, and the
    # report says so
    rp2 = read_complex(fixture_path("rp2.cplx"))
    gf2 = FieldSpec.prime(2)
    assert graded_betti(rp2, gf2).cells != graded_betti(rp2, GF_DEFAULT).cells
    rep = verify_complex(rp2, gf2)
    assert rep.char_zero_agrees is False
    assert verify_complex(rp2, GF_DEFAULT).char_zero_agrees is True
    print(
        f"ACCEPTANCE 7 homology oracle sanity: PASS ({len(complexes)} complexes, "
        f"{len(factors)} invariant factors > 1, none divisible by {GF_DEFAULT.p})"
    )


def test_criterion_8_byte_identical_reports(tmp_path):
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    args = [
        "verify",
        "--count", str(CORPUS_COUNT),
        "--n-max", str(CORPUS_NMAX),
        "--seed", str(CORPUS_SEED),
        "--format", "json",
    ]
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    print(f"ACCEPTANCE 8 deterministic reports: PASS ({out1.stat().st_size} identical bytes)")
