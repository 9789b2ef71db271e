from fractions import Fraction

from hmslines.linalg import mat_mul, mat_vec, nullspace, rref, solve


def F(x):
    return Fraction(x)


def test_mat_vec_and_mat_mul():
    A = [[F(1), F(2)], [F(3), F(4)]]
    v = [F(5), F(6)]
    assert mat_vec(A, v) == [F(17), F(39)]
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


def test_nullspace_vectors_are_annihilated():
    A = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    basis, free = nullspace(A)
    assert len(basis) == 2
    assert free == [1, 2]
    for k, v in enumerate(basis):
        assert [v[j] for j in free] == [F(int(i == k)) for i in range(2)]
    for v in basis:
        assert mat_vec(A, list(v)) == [F(0), F(0)]


def test_solve_square_and_overdetermined():
    A = [[F(2), F(0)], [F(0), F(4)]]
    x = solve(A, [F(6), F(8)])
    assert x == [F(3), F(2)]
    # consistent overdetermined system
    B = [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]]
    y = solve(B, [F(2), F(3), F(5)])
    assert y == [F(2), F(3)]
    assert solve(B, [F(2), F(3), F(99)]) is None
