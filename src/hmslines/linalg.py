"""Small exact linear algebra over field-like scalars.

Matrices are lists of rows.  Entries may be Fraction, CycloElt or
anything else supporting +, -, *, / and a zero test; plain ints are
lifted to Fraction so that division stays exact.
"""

from fractions import Fraction

from .mpoly import coeff_is_zero


def _lift(x):
    if isinstance(x, int):
        return Fraction(x)
    return x


def mat_vec(A, v):
    out = []
    for row in A:
        acc = _lift(row[0]) * v[0]
        for a, b in zip(row[1:], v[1:]):
            acc = acc + _lift(a) * b
        out.append(acc)
    return out


def mat_mul(A, B):
    n = len(B)
    out = []
    for row in A:
        new = []
        for j in range(len(B[0])):
            acc = _lift(row[0]) * B[0][j]
            for k in range(1, n):
                acc = acc + _lift(row[k]) * B[k][j]
            new.append(acc)
        out.append(new)
    return out


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    R = [[_lift(x) for x in row] for row in rows]
    m = len(R)
    n = len(R[0]) if m else 0
    pivots = []
    r = 0
    for col in range(n):
        pr = None
        for i in range(r, m):
            if not coeff_is_zero(R[i][col]):
                pr = i
                break
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        pv = R[r][col]
        R[r] = [x / pv for x in R[r]]
        for i in range(m):
            if i != r and not coeff_is_zero(R[i][col]):
                f = R[i][col]
                R[i] = [a - f * b for a, b in zip(R[i], R[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    return R, pivots


def nullspace(rows):
    """(basis, free_columns) of the right kernel of the matrix given by rows.

    rows is non-empty.  Basis vector k is 1 at free column k, 0 at the
    other free columns.
    """
    n = len(rows[0])
    R, pivots = rref(rows)
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for j in free:
        v = [Fraction(0)] * n
        v[j] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -R[ri][j]
        basis.append(v)
    return basis, free


def solve(A, b):
    """One solution of A x = b, or None if inconsistent."""
    n = len(A[0])
    aug = [[_lift(x) for x in row] + [_lift(bv)] for row, bv in zip(A, b)]
    R, pivots = rref(aug)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for ri, pc in enumerate(pivots):
        x[pc] = R[ri][n]
    return x
