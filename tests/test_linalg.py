from fractions import Fraction

from hmslines.linalg import mat_mul, rref


def F(x):
    return Fraction(x)


def test_mat_mul():
    A = [[F(1), F(2)], [F(3), F(4)]]
    assert mat_mul(A, [[F(5)], [F(6)]]) == [[F(17)], [F(39)]]
    B = [[F(0), F(1)], [F(1), F(0)]]
    assert mat_mul(A, B) == [[F(2), F(1)], [F(4), F(3)]]


def test_rref_pivots_and_idempotence():
    A = [[F(0), F(2), F(4)], [F(1), F(1), F(1)]]
    R, pivots = rref(A)
    assert pivots == [0, 1]
    R2, _ = rref(R)
    assert R2 == R
    # leading entries are one
    for i, j in enumerate(pivots):
        assert R[i][j] == 1
