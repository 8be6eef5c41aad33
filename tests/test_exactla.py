"""Field validation and exact rank computation, checked against a dense
Fraction elimination written independently in the test helpers."""

import random

import pytest

from helpers import frac_rank
from srbetti import GF_DEFAULT, QQ, FieldSpec, SparseMatrix, rank


def dense_to_sparse(dense):
    rows = len(dense)
    cols = len(dense[0]) if dense else 0
    entries = tuple(
        (r, c, v) for r, row in enumerate(dense) for c, v in enumerate(row) if v
    )
    return SparseMatrix(rows, cols, entries)


def test_field_validation():
    assert FieldSpec.prime(32003).characteristic == 32003
    assert FieldSpec.prime(2).characteristic == 2
    assert FieldSpec.rationals().characteristic == 0
    assert str(QQ) == "Q"
    assert str(GF_DEFAULT) == "GF(32003)"
    for bad in (1, 0, -7, 4, 32004, 1 << 31):
        with pytest.raises(ValueError):
            FieldSpec.prime(bad)


def test_sparse_matrix_validation():
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, ((2, 0, 1),))
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, ((0, 0, 1), (0, 0, 2)))
    # zero entries are dropped, storage is canonical
    m = SparseMatrix(2, 2, ((1, 1, 5), (0, 0, 0)))
    assert m.entries == ((1, 1, 5),)


def test_rank_zero_and_identity():
    assert rank(SparseMatrix(3, 4, ())) == 0
    eye = SparseMatrix(5, 5, tuple((i, i, 1) for i in range(5)))
    for field in (GF_DEFAULT, QQ, FieldSpec.prime(2)):
        assert rank(eye, field) == 5


def test_rank_c4_boundary():
    # edge-vertex incidence of the 4-cycle, signs per the usual convention
    dense = [
        [-1, 0, 0, -1],
        [1, -1, 0, 0],
        [0, 1, -1, 0],
        [0, 0, 1, 1],
    ]
    m = dense_to_sparse(dense)
    assert frac_rank(dense) == 3
    for field in (GF_DEFAULT, QQ, FieldSpec.prime(2), FieldSpec.prime(3)):
        assert rank(m, field) == 3


def test_rank_depends_on_characteristic():
    m = dense_to_sparse([[2]])
    assert rank(m, QQ) == 1
    assert rank(m, FieldSpec.prime(2)) == 0
    assert rank(m, FieldSpec.prime(3)) == 1
    twos = dense_to_sparse([[1, 1], [1, -1]])
    assert rank(twos, QQ) == 2
    assert rank(twos, FieldSpec.prime(2)) == 1


def test_rank_against_fraction_oracle():
    rnd = random.Random(2001)
    for _ in range(120):
        rows = rnd.randint(1, 8)
        cols = rnd.randint(1, 8)
        dense = [[rnd.choice((-1, 0, 0, 1)) for _ in range(cols)] for _ in range(rows)]
        expected = frac_rank(dense)
        m = dense_to_sparse(dense)
        assert rank(m, QQ) == expected
        assert rank(m, GF_DEFAULT) == expected


def test_rank_transpose_and_bound():
    rnd = random.Random(2002)
    for _ in range(60):
        rows = rnd.randint(1, 7)
        cols = rnd.randint(1, 7)
        dense = [[rnd.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        m = dense_to_sparse(dense)
        for field in (QQ, GF_DEFAULT):
            r = rank(m, field)
            assert r == rank(m.transpose(), field)
            assert r <= min(rows, cols)


def test_rank_of_dense_input():
    # 70x70 all-ones plus identity: every row fills in completely on elimination
    n = 70
    dense = [[1 + (i == j) for j in range(n)] for i in range(n)]
    m = dense_to_sparse(dense)
    assert rank(m, GF_DEFAULT) == n
    assert rank(m, QQ) == n
    ones = SparseMatrix(n, n, tuple((i, j, 1) for i in range(n) for j in range(n)))
    assert rank(ones, GF_DEFAULT) == 1
    assert rank(ones, QQ) == 1
