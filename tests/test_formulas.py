"""Closed-form Betti numbers from h-vectors, and the linear-relation system."""

from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb, factorial, prod

import pytest

from helpers import bumped_table, cyclic_polytope_boundary, join
from srbetti import (
    QQ,
    FieldSpec,
    HVector,
    betti_from_h,
    check_lower_bound,
    classify,
    clique_complex,
    complete_graph,
    complex_from_facets,
    cycle_graph,
    f_vector,
    gen_chordal,
    graded_betti,
    h_relations,
    h_vector,
    path_graph,
    verify_complex,
)


def test_betti_from_h_fixed_cases():
    # values independently confirmed by the subset-homology oracle tables
    assert betti_from_h(HVector((1, 2, 1)), 4, (2, 4)) == (2, 1)
    assert betti_from_h(HVector((1, 1)), 2, (2,)) == (1,)
    assert betti_from_h(HVector((1, 1, 1)), 3, (3,)) == (1,)


def test_betti_from_h_pentagon():
    assert betti_from_h(HVector((1, 3, 1)), 5, (2, 3, 5)) == (5, 5, 1)


def test_betti_from_h_linear_fixed_cases():
    assert betti_from_h(HVector((1, 1, 0)), 3, (2,)) == (1,)
    assert betti_from_h(HVector((1, 1)), 2, (2,)) == (1,)


def test_linear_specializes_general():
    for g in [path_graph(4), gen_chordal(7, 0.5, 11), gen_chordal(8, 0.3, 12)]:
        c = clique_complex(g)
        table = graded_betti(c)
        shape = classify(table)
        assert shape.kind == "linear"
        h = h_vector(f_vector(c))
        # a t-linear shape of length p+1 is the degree sequence t, t+1, ..., t+p
        degrees = tuple(range(shape.t, shape.t + shape.p + 1))
        assert degrees == shape.degrees
        assert betti_from_h(h, c.n, degrees) == shape.betti


def test_non_positive_result_is_returned():
    # wrong degree data for the 4-cycle h-vector, (1-z)^2 h(z) = 1 - 2z^2 + z^4:
    # the values are returned as computed, and a value <= 0 is left for the
    # comparison with the table to fail
    h = HVector((1, 2, 1))
    assert betti_from_h(h, 4, (3, 4)) == (0, 1)
    # a negative degree reads a zero coefficient: index -3 read from the end
    # would give beta_0 = 2
    assert betti_from_h(h, 4, (-3, 4)) == (0, 1)
    assert betti_from_h(h, 4, (0, 4)) == (-1, 1)


def test_betti_from_h_validation():
    with pytest.raises(ValueError):
        betti_from_h(HVector((1, 1, 1)), 1, (2,))  # n < d
    with pytest.raises(ValueError):
        betti_from_h(HVector((1,)), 0, (2,))  # d < 1


def test_h_relations_path():
    # path a-b-c: h = (1, 1, 0), p = 0, t = 2; only j = 3 emitted and it vanishes
    res = h_relations(HVector((1, 1, 0)), n=3, p=0, t=2)
    assert res == (0,)


def test_h_relations_window():
    # nothing emitted when p+t >= n
    assert h_relations(HVector((1, 1)), n=2, p=0, t=2) == ()
    # the 4-cycle is pure but NOT 2-linear, and the relations see it:
    # pretending t=2, p=1 leaves the j=4 residual at h_2 = 1
    assert h_relations(HVector((1, 2, 1)), n=4, p=1, t=2) == (1,)


def test_h_relations_detect_corruption():
    good = h_relations(HVector((1, 1, 0)), n=3, p=0, t=2)
    assert all(r == 0 for r in good)
    # flipping h_2 breaks the j=3 relation h_3 - h_2 = 0
    corrupted = h_relations(HVector((1, 1, 1)), n=3, p=0, t=2)
    assert any(r != 0 for r in corrupted)


def test_chordal_h_relations_path_and_corpus():
    # the paper's system for a chordal graph is the report's residuals: the
    # face ideal of a clique complex is generated by quadrics, so t = 2
    assert verify_complex(clique_complex(path_graph(3))).relation_residuals == (0,)
    for seed in range(50):
        g = gen_chordal(2 + seed % 8, 0.45, seed)
        rep = verify_complex(clique_complex(g))
        if rep.shape.kind == "trivial":
            assert rep.relation_residuals is None, (seed, g.adj)
            continue
        assert rep.shape.t == 2, (seed, g.adj)
        assert all(r == 0 for r in rep.relation_residuals), (seed, g.adj)


def test_chordal_h_relations_complete_graph_trivial():
    rep = verify_complex(clique_complex(complete_graph(4)))
    assert rep.shape.kind == "trivial"
    assert rep.relation_residuals is None


def test_chordal_h_relations_rejects_non_chordal():
    rep = verify_complex(clique_complex(cycle_graph(4)))
    assert rep.shape.kind not in ("linear", "trivial")
    assert rep.relation_residuals is None


def test_linear_relations_are_the_degree_bound():
    # the residuals vanish exactly because the numerator identity's left side
    # has degree at most p+t for a t-linear resolution
    from srbetti.hilbert import h_numerator

    for seed in (3, 14, 15, 92):
        g = gen_chordal(8, 0.5, seed)
        c = clique_complex(g)
        table = graded_betti(c)
        shape = classify(table)
        if shape.kind != "linear":
            continue
        assert len(h_numerator(h_vector(f_vector(c)), c.n)) - 1 <= shape.p + shape.t


def test_check_lower_bound():
    assert check_lower_bound((2, 1)) == (True, True)
    assert check_lower_bound((1,)) == (True,)
    assert check_lower_bound((1, 1)) == (True, True)
    assert check_lower_bound((1, 1, 1)) == (True, False, True)


def test_formula_matches_oracle_on_pure_non_linear():
    # chordless cycles give pure non-linear tables; the closed form must
    # still reproduce the oracle exactly
    for n in (4, 5, 6, 7):
        c = clique_complex(cycle_graph(n))
        table = graded_betti(c)
        shape = classify(table)
        assert shape.kind == "pure"
        assert betti_from_h(h_vector(f_vector(c)), c.n, shape.degrees) == shape.betti


@pytest.mark.parametrize("field", [QQ, FieldSpec.prime(2), FieldSpec.prime(3)], ids=str)
def test_cyclic_polytopes_pure_non_linear(field):
    # the boundary of an even-dimensional cyclic polytope is Gorenstein and
    # neighborly: a pure resolution of degrees d/2+1, ..., n-d/2-1 and n,
    # checked against the theorem and against Herzog-Kuhl's Betti numbers
    # and Huneke-Miller's multiplicity, both from the degrees alone
    for d in (2, 4, 6, 8):
        for n in range(d + 2, 13):
            rep = verify_complex(cyclic_polytope_boundary(n, d), field)
            degrees = (*range(d // 2 + 1, n - d // 2), n)
            assert (rep.shape.kind, rep.shape.degrees) == ("pure", degrees), (n, d)
            assert rep.all_identities_hold() and rep.table.pdim == rep.codim, (n, d)
            herzog_kuhl = tuple(
                abs(prod(Fraction(dj, dj - di) for dj in degrees if dj != di)) for di in degrees
            )
            assert herzog_kuhl == rep.shape.betti, (n, d)
            assert sum(rep.h.entries) == Fraction(prod(degrees), factorial(len(degrees))), (n, d)
            for k in range(1, len(rep.table.cells)):
                bumped = classify(bumped_table(rep.table, k)).betti
                assert betti_from_h(rep.h, n, degrees) != bumped, (n, d, k)
                assert herzog_kuhl != bumped, (n, d, k)
    for d in (3, 5, 7):
        for n in range(d + 2, 13):
            assert verify_complex(cyclic_polytope_boundary(n, d), field).shape.kind == "general", (n, d)
    # the join of k boundaries of the (a-1)-simplex is a complete
    # intersection of k forms of degree a: beta_{i, a i} = C(k, i), pure
    # with degrees (a, 2a, ..., ka), and h(1) = a^k.  a = 2 is the
    # cross-polytope
    for a in (3, 4):
        for k in range(1, 12 // a + 1):
            boundaries = [complex_from_facets([[f"{b}.{v}" for v in s] for s in combinations(range(a), a - 1)]) for b in range(k)]
            rep = verify_complex(reduce(join, boundaries), field)
            degrees = tuple(a * i for i in range(1, k + 1))
            assert rep.table.cells == tuple((i, a * i, comb(k, i)) for i in range(k + 1)), (a, k)
            assert (rep.shape.kind, rep.shape.degrees) == ("linear" if k == 1 else "pure", degrees), (a, k)
            assert rep.all_identities_hold() and rep.table.pdim == rep.codim == k, (a, k)
            herzog_kuhl = tuple(
                abs(prod(Fraction(dj, dj - di) for dj in degrees if dj != di)) for di in degrees
            )
            assert herzog_kuhl == rep.shape.betti, (a, k)
            assert sum(rep.h.entries) == Fraction(prod(degrees), factorial(k)) == a**k, (a, k)
            for cell in range(1, len(rep.table.cells)):
                bumped = classify(bumped_table(rep.table, cell)).betti
                assert betti_from_h(rep.h, a * k, degrees) != bumped, (a, k, cell)
                assert herzog_kuhl != bumped, (a, k, cell)
