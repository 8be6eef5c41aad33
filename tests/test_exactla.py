"""Field validation and exact rank computation, checked against a dense
Fraction elimination written independently in the test helpers."""

import random

import pytest

from helpers import frac_rank, modp_rank
from srbetti import GF_DEFAULT, QQ, FieldSpec, rank
from srbetti.exactla import integral_rank

PRIMES = (2, 3, 5, 32003)


def sparse_rows(dense):
    return [{c: v for c, v in enumerate(row) if v} for row in dense]


def transposed(dense):
    return [list(col) for col in zip(*dense)]


def test_field_validation():
    assert FieldSpec.prime(32003).characteristic == 32003
    assert FieldSpec.prime(2).characteristic == 2
    assert FieldSpec.rationals().characteristic == 0
    assert str(QQ) == "Q"
    assert str(GF_DEFAULT) == "GF(32003)"
    for bad in (1, 0, -7, 4, 32004, 1 << 31):
        with pytest.raises(ValueError):
            FieldSpec.prime(bad)


def test_rank_zero_and_identity():
    assert rank(sparse_rows([[0] * 4] * 3)) == 0
    assert rank([]) == 0
    eye = [[int(i == j) for j in range(5)] for i in range(5)]
    for field in (GF_DEFAULT, QQ, FieldSpec.prime(2)):
        assert rank(sparse_rows(eye), field) == 5


def test_rank_c4_boundary():
    # edge-vertex incidence of the 4-cycle, signs per the usual convention
    dense = [
        [-1, 0, 0, -1],
        [1, -1, 0, 0],
        [0, 1, -1, 0],
        [0, 0, 1, 1],
    ]
    assert frac_rank(dense) == 3
    for field in (GF_DEFAULT, QQ, FieldSpec.prime(2), FieldSpec.prime(3)):
        assert rank(sparse_rows(dense), field) == 3


def test_rank_depends_on_characteristic():
    assert rank(sparse_rows([[2]]), QQ) == 1
    assert rank(sparse_rows([[2]]), FieldSpec.prime(2)) == 0
    assert rank(sparse_rows([[2]]), FieldSpec.prime(3)) == 1
    twos = [[1, 1], [1, -1]]
    assert rank(sparse_rows(twos), QQ) == 2
    assert rank(sparse_rows(twos), FieldSpec.prime(2)) == 1


def test_rank_against_fraction_oracle():
    rnd = random.Random(2001)
    for _ in range(120):
        rows = rnd.randint(1, 8)
        cols = rnd.randint(1, 8)
        dense = [[rnd.choice((-1, 0, 0, 1)) for _ in range(cols)] for _ in range(rows)]
        expected = frac_rank(dense)
        assert rank(sparse_rows(dense), QQ) == expected
        assert rank(sparse_rows(dense), GF_DEFAULT) == expected


def test_rank_transpose_and_bound():
    rnd = random.Random(2002)
    for _ in range(60):
        rows = rnd.randint(1, 7)
        cols = rnd.randint(1, 7)
        dense = [[rnd.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        for field in (QQ, GF_DEFAULT):
            r = rank(sparse_rows(dense), field)
            assert r == rank(sparse_rows(transposed(dense)), field)
            assert r <= min(rows, cols)


def random_non_unit_matrix(rnd):
    """Entries mostly without a unit, so elimination must leave a block
    for the Smith normal form."""
    rows, cols = rnd.randint(1, 7), rnd.randint(1, 7)
    entries = (0, 0, 2, -2, 3, -3, 6, -6, 1)
    return [[rnd.choice(entries) for _ in range(cols)] for _ in range(rows)]


# (matrix, its rank and invariant factors > 1), each checked against sympy
FIXED_SMITH = [
    ([[2, 3]], (1, ())),  # the remainder 1 becomes a unit pivot
    ([[6, 4], [4, 6]], (2, (2, 10))),
    ([[-2, 4], [4, -2]], (2, (2, 6))),  # negative pivots
    ([[2, 0, 1], [0, 2, 1]], (2, (2,))),  # a unit step, then a non-unit block
    ([[2, 0], [0, 3]], (2, (6,))),  # 2 does not divide 3: factors 1 and 6
]


def test_integral_rank_against_oracles():
    # rank over Q from the Fraction oracle; over GF(p) the rank is rank_Q
    # less the invariant factors divisible by p, checked by the mod-p oracle
    rnd = random.Random(2003)
    blocks = 0
    matrices = [dense for dense, _ in FIXED_SMITH] + [random_non_unit_matrix(rnd) for _ in range(300)]
    for dense in matrices:
        rnk, factors = integral_rank(sparse_rows(dense))
        assert rnk == frac_rank(dense) == rank(sparse_rows(dense), QQ)
        assert all(t > 1 for t in factors)
        blocks += bool(factors)
        for p in PRIMES:
            expected = modp_rank(dense, p)
            assert rnk - sum(1 for t in factors if t % p == 0) == expected
            assert rank(sparse_rows(dense), FieldSpec.prime(p)) == expected
    assert blocks > 100
    for dense, expected in FIXED_SMITH:
        assert integral_rank(sparse_rows(dense)) == expected, dense


def test_integral_rank_matches_smith_normal_form():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rnd = random.Random(2004)
    for dense in [dense for dense, _ in FIXED_SMITH] + [random_non_unit_matrix(rnd) for _ in range(150)]:
        snf = smith_normal_form(sympy.Matrix(dense), domain=sympy.ZZ)
        diagonal = [abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i]]
        expected = (len(diagonal), tuple(sorted(t for t in diagonal if t > 1)))
        assert integral_rank(sparse_rows(dense)) == expected, dense


def test_rank_of_dense_input():
    # 70x70 all-ones plus identity, a dense input; its determinant is 71,
    # the one invariant factor > 1
    n = 70
    dense = [[1 + (i == j) for j in range(n)] for i in range(n)]
    assert integral_rank(sparse_rows(dense)) == (n, (71,))
    assert rank(sparse_rows(dense), GF_DEFAULT) == n
    assert rank(sparse_rows(dense), QQ) == n
    assert rank(sparse_rows(dense), FieldSpec.prime(71)) == n - 1
    ones = [[1] * n for _ in range(n)]
    assert rank(sparse_rows(ones), GF_DEFAULT) == 1
    assert rank(sparse_rows(ones), QQ) == 1
