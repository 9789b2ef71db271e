"""Small exact linear algebra over field-like scalars.

Matrices are lists of rows.  Entries may be Fraction or anything else
supporting +, -, *, / and `x != 0`; plain ints are lifted to Fraction
so that division stays exact.
"""

from fractions import Fraction


def _lift(x):
    if isinstance(x, int):
        return Fraction(x)
    return x


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
            if R[i][col] != 0:
                pr = i
                break
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        pv = R[r][col]
        R[r] = [x / pv for x in R[r]]
        for i in range(m):
            if i != r and R[i][col] != 0:
                f = R[i][col]
                R[i] = [a - f * b for a, b in zip(R[i], R[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    return R, pivots
