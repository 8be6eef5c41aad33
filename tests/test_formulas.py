"""Closed-form Betti numbers from h-vectors, and the linear-relation system."""

import pytest

from srbetti import (
    HVector,
    NonPositiveResultError,
    NotChordalError,
    betti_from_h,
    check_lower_bound,
    chordal_h_relations,
    classify,
    clique_complex,
    complete_graph,
    cycle_graph,
    f_vector,
    gen_chordal,
    graded_betti,
    h_relations,
    h_vector,
    path_graph,
)


def test_betti_from_h_fixed_cases():
    # values independently confirmed by the subset-homology oracle tables
    assert betti_from_h(HVector((1, 2, 1)), 4, 2, (2, 4)) == (2, 1)
    assert betti_from_h(HVector((1, 1)), 2, 1, (2,)) == (1,)
    assert betti_from_h(HVector((1, 1, 1)), 3, 2, (3,)) == (1,)


def test_betti_from_h_pentagon():
    assert betti_from_h(HVector((1, 3, 1)), 5, 2, (2, 3, 5)) == (5, 5, 1)


def test_betti_from_h_linear_fixed_cases():
    assert betti_from_h(HVector((1, 1, 0)), 3, 2, (2,)) == (1,)
    assert betti_from_h(HVector((1, 1)), 2, 1, (2,)) == (1,)


def test_linear_specializes_general():
    for g in [path_graph(4), gen_chordal(7, 0.5, 11), gen_chordal(8, 0.3, 12)]:
        c = clique_complex(g)
        table = graded_betti(c)
        shape = classify(table)
        assert shape.kind == "linear"
        f = f_vector(c)
        h = h_vector(f)
        # a t-linear shape of length p+1 is the degree sequence t, t+1, ..., t+p
        degrees = tuple(range(shape.t, shape.t + shape.p + 1))
        assert degrees == shape.degrees
        assert betti_from_h(h, c.n, f.d, degrees) == shape.betti


def test_non_positive_result_raises():
    # wrong degree data for the 4-cycle h-vector: the sums collapse to <= 0
    with pytest.raises(NonPositiveResultError):
        betti_from_h(HVector((1, 2, 1)), 4, 2, (3, 4))
    # a degree <= 0 reads a zero coefficient: with (1-z)^2 h(z) = 1 - 2z^2 + z^4,
    # index -3 read from the end would give beta_0 = 2 and no error
    for low in ((-3, 4), (0, 4)):
        with pytest.raises(NonPositiveResultError):
            betti_from_h(HVector((1, 2, 1)), 4, 2, low)


def test_betti_from_h_validation():
    with pytest.raises(ValueError):
        betti_from_h(HVector((1, 1)), 1, 2, (2,))  # n < d
    with pytest.raises(ValueError):
        betti_from_h(HVector((1,)), 0, 0, (2,))  # d < 1


def test_h_relations_path():
    # path a-b-c: h = (1, 1, 0), p = 0, t = 2; only j = 3 emitted and it vanishes
    res = h_relations(HVector((1, 1, 0)), n=3, d=2, p=0, t=2)
    assert res == (0,)


def test_h_relations_window():
    # nothing emitted when p+t >= n
    assert h_relations(HVector((1, 1)), n=2, d=1, p=0, t=2) == ()
    # the 4-cycle is pure but NOT 2-linear, and the relations see it:
    # pretending t=2, p=1 leaves the j=4 residual at h_2 = 1
    assert h_relations(HVector((1, 2, 1)), n=4, d=2, p=1, t=2) == (1,)


def test_h_relations_detect_corruption():
    good = h_relations(HVector((1, 1, 0)), n=3, d=2, p=0, t=2)
    assert all(r == 0 for r in good)
    # flipping h_2 breaks the j=3 relation h_3 - h_2 = 0
    corrupted = h_relations(HVector((1, 1, 1)), n=3, d=2, p=0, t=2)
    assert any(r != 0 for r in corrupted)


def test_chordal_h_relations_path_and_corpus():
    assert chordal_h_relations(path_graph(3)) == (0,)
    for seed in range(50):
        g = gen_chordal(2 + seed % 8, 0.45, seed)
        assert all(r == 0 for r in chordal_h_relations(g)), (seed, g.adj)


def test_chordal_h_relations_complete_graph_trivial():
    assert chordal_h_relations(complete_graph(4)) == ()


def test_chordal_h_relations_rejects_non_chordal():
    with pytest.raises(NotChordalError):
        chordal_h_relations(cycle_graph(4))


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
        f = f_vector(c)
        assert len(h_numerator(h_vector(f), c.n, f.d)) - 1 <= shape.p + shape.t


def test_check_lower_bound():
    assert check_lower_bound((2, 1), 1) == (True, True)
    assert check_lower_bound((1,), 0) == (True,)
    assert check_lower_bound((1, 1), 1) == (True, True)
    assert check_lower_bound((1, 1, 1), 2) == (True, False, True)
    with pytest.raises(ValueError):
        check_lower_bound((1, 1), 2)


def test_formula_matches_oracle_on_pure_non_linear():
    # chordless cycles give pure non-linear tables; the closed form must
    # still reproduce the oracle exactly
    for n in (4, 5, 6, 7):
        c = clique_complex(cycle_graph(n))
        table = graded_betti(c)
        shape = classify(table)
        assert shape.kind == "pure"
        f = f_vector(c)
        assert betti_from_h(h_vector(f), c.n, f.d, shape.degrees) == shape.betti
