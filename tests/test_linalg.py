from fractions import Fraction

from exact_oracles import rref


def F(x):
    return Fraction(x)


def test_rref_pivots_and_idempotence():
    A = [[F(0), F(2), F(4)], [F(1), F(1), F(1)]]
    R, pivots = rref(A)
    assert pivots == [0, 1]
    R2, _ = rref(R)
    assert R2 == R
    # leading entries are one
    for i, j in enumerate(pivots):
        assert R[i][j] == 1
