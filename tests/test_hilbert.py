"""Hilbert series, multiplicity, and the K-polynomial identity."""

import random

import pytest

from helpers import bumped_table, count_monomials, h_by_expansion, poly_mul, random_complex
from srbetti import (
    GF_DEFAULT,
    QQ,
    Complex,
    FieldSpec,
    HVector,
    classify,
    clique_complex,
    complex_from_facets,
    f_vector,
    fixture_path,
    graded_betti,
    h_vector,
    multiplicity,
    read_complex,
    read_graph,
    series_from_f,
    verify_series_identity,
)
from srbetti.hilbert import h_numerator, k_polynomial

C4 = complex_from_facets([["1", "2"], ["2", "3"], ["3", "4"], ["1", "4"]])
TRI = complex_from_facets([["1", "2"], ["1", "3"], ["2", "3"]])
TWO_POINTS = complex_from_facets([["a"], ["b"]])


def test_h_numerator_is_a_product():
    # against list multiplication in tests/helpers, one factor (1-z) at a time
    rnd = random.Random(5000)
    for _ in range(200):
        h = HVector((1, *(rnd.randint(-5, 9) for _ in range(rnd.randint(0, 5)))))
        d = len(h.entries) - 1
        n = d + rnd.randint(0, 5)
        expected = list(h.entries)
        for _ in range(n - d):
            expected = poly_mul(expected, [1, -1])
        while expected and expected[-1] == 0:
            expected.pop()
        assert h_numerator(h, n) == tuple(expected), (h, n)
    with pytest.raises(ValueError):
        h_numerator(HVector((1, 1, 1)), 1)


def test_series_examples():
    assert series_from_f(f_vector(TWO_POINTS)) == ((1, 1), 1)
    assert series_from_f(f_vector(C4)) == ((1, 2, 1), 2)
    assert series_from_f(f_vector(complex_from_facets([["x", "y", "z"]]))) == ((1,), 3)


def test_series_numerator_is_h_vector():
    # against the f-vector expansion of tests/helpers, not srbetti's h_vector
    rnd = random.Random(5001)
    for _ in range(120):
        f = f_vector(random_complex(rnd))
        numerator, pole_order = series_from_f(f)
        expected = h_by_expansion(f.entries)
        while expected[-1] == 0:
            expected.pop()
        assert numerator == tuple(expected)
        assert pole_order == f.d


def test_multiplicity_examples():
    assert multiplicity(HVector((1, 2, 1))) == 4
    assert multiplicity(HVector((1, 0, 0, 0))) == 1
    assert multiplicity(HVector((1, 1, 1))) == 3


def test_multiplicity_equals_top_f():
    rnd = random.Random(5002)
    for _ in range(120):
        f = f_vector(random_complex(rnd))
        assert multiplicity(h_vector(f)) == f.entries[-1]


def series_coeffs(c, count):
    """The first `count` power-series coefficients of the Hilbert series of
    c: its numerator divided d times by (1-z), each a running sum."""
    numerator, pole_order = series_from_f(f_vector(c))
    coeffs = [numerator[k] if k < len(numerator) else 0 for k in range(count)]
    for _ in range(pole_order):
        for k in range(1, count):
            coeffs[k] += coeffs[k - 1]
    return coeffs


def test_series_coefficients_examples():
    assert series_coeffs(C4, 5) == [1, 4, 8, 12, 16]
    point = complex_from_facets([["a"]])
    assert series_coeffs(point, 5) == [1, 1, 1, 1, 1]
    assert series_coeffs(TWO_POINTS, 5) == [1, 2, 2, 2, 2]
    # the empty complex: k[empty] = k, one monomial in degree 0
    assert series_coeffs(Complex((), (0,)), 5) == [1, 0, 0, 0, 0]


def test_monomial_counts_difference_to_multiplicity():
    # the Hilbert function agrees with a polynomial of degree d-1 from s = 1
    # on, whose (d-1)-th forward difference is the multiplicity
    rnd = random.Random(5003)
    for _ in range(60):
        c = random_complex(rnd)
        f = f_vector(c)
        if f.d == 0:
            continue
        row = [count_monomials(c, s) for s in range(1, f.d + 1)]
        for _ in range(f.d - 1):
            row = [b - a for a, b in zip(row, row[1:])]
        assert row == [multiplicity(h_vector(f))], c.facets


def test_series_counts_monomials():
    # agreement with brute-force enumeration of monomials supported on faces
    rnd = random.Random(5004)
    cases = [C4, TRI, TWO_POINTS, complex_from_facets([["a", "b", "c"], ["c", "d"]])]
    cases += [random_complex(rnd, max_n=5) for _ in range(10)]
    for c in cases:
        assert series_coeffs(c, 5) == [count_monomials(c, s) for s in range(5)], c.facets


def test_k_polynomial_examples():
    # C4: beta_{1,2} = 2, beta_{2,4} = 1; two points: beta_{1,2} = 1
    assert k_polynomial(graded_betti(C4)) == (1, 0, -2, 0, 1)
    assert k_polynomial(graded_betti(TWO_POINTS)) == (1, 0, -1)
    assert h_numerator(HVector((1, 2, 1)), 4) == (1, 0, -2, 0, 1)
    assert h_numerator(HVector((1, 1)), 2) == (1, 0, -1)
    assert k_polynomial(graded_betti(complex_from_facets([["x", "y"]]))) == (1,)


def test_series_identity_examples():
    assert verify_series_identity(HVector((1, 2, 1)), graded_betti(C4)) == ()
    assert verify_series_identity(HVector((1, 1)), graded_betti(TWO_POINTS)) == ()
    corrupted = verify_series_identity(HVector((1, 2, 1)), bumped_table(graded_betti(C4), 1))
    assert corrupted == (0, 0, 1)


def test_series_identity_perturbations():
    # raising any single Betti cell must leave a nonzero residual
    table = graded_betti(C4)
    for k in range(len(table.cells)):
        assert verify_series_identity(HVector((1, 2, 1)), bumped_table(table, k)) != ()


def test_series_identity_holds_for_every_shape():
    rnd = random.Random(5005)
    fields = (FieldSpec.prime(2), GF_DEFAULT, QQ)
    cases = [(random_complex(rnd), field) for field in fields for _ in range(40)]
    cases.append((read_complex(fixture_path("rp2.cplx")), FieldSpec.prime(2)))
    cases.append((read_complex(fixture_path("c4.cplx")), QQ))
    cases.append((clique_complex(read_graph(fixture_path("k3.graph"))), GF_DEFAULT))
    kinds = []
    for c, field in cases:
        table = graded_betti(c, field)
        kinds.append(classify(table).kind)
        assert verify_series_identity(h_vector(f_vector(c)), table) == (), (c.facets, field)
    # random draws are never a simplex; the fixtures add the pure and trivial shapes
    assert set(kinds[:-3]) == {"linear", "general"}
    assert set(kinds) == {"trivial", "linear", "pure", "general"}
