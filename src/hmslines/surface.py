"""Twisted models of the degree-8 threefold sigma1 = sigma2 = sigma4 = 0.

The untwisted model lives in P^5 with coordinates s0..s5 and is cut out
by the elementary symmetric polynomials sigma1, sigma2, sigma4.  A twist
is an invertible linear change of coordinates s = M y over the
Eisenstein field Q(omega), whose composed equations have rational
coefficients; `TwistData` is only its two rational matrices,
M = A + omega B (the lambdas of `char3_twist` scale its columns), and
`SurfaceModel` keeps only the composed forms and their scales.
`twisted_equations` gets all six composed sigma_k at once, in integers:
it clears one common denominator of A and B, runs the sigma recurrence
on the linear forms with coefficients in Z[omega] (int pairs), certifies
that every omega part vanishes, and clears the content.

`ordinarity_from_valuations` is the one ordinarity rule, which the
5-adic points of a certificate go through; `verify` computes the
ratios that `verify-paper` checks.

The model also owns what every integer line is tested and restricted
with: the integer row of q1, the doubled Gram matrix of q2, and each
form compiled once, on first use, into a `CompiledForm`, which
restricts it to a line of int rows by one evaluation (Kronecker
substitution).  Rows over F_q or over polynomials go through the
ring-generic `mpoly.restrict_to_span` instead.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import HmsError
from .mpoly import SparsePoly
from .scalars import integer_numerators


class TwistData:
    """An invertible change of coordinates s_i = sum_j M[i][j] y_j over
    Q(omega), omega^2 + omega + 1 = 0, with M = A + omega B.

    `matrix` is A and `omega` is B, both 6x6 matrices of Fractions; B is
    zero unless given.  The built-in twists are invertible for every
    nonzero lambda, which the tests check, so nothing checks it here.
    """

    def __init__(self, matrix, omega=None):
        if omega is None:
            omega = [[0] * 6 for _ in range(6)]
        A, B = ([[Fraction(x) for x in row] for row in part] for part in (matrix, omega))
        if any(len(part) != 6 or any(len(row) != 6 for row in part) for part in (A, B)):
            raise HmsError("twist matrix must be 6x6")
        self.matrix = A
        self.omega = B


def identity_twist() -> TwistData:
    rows = [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
    return TwistData(rows)


def rho0_twist() -> TwistData:
    """Archimedean twist: pairs of conjugate coordinates over Q(sqrt(-3)),
    with sqrt(-3) = 1 + 2 omega."""
    rows = [
        [1, 1, 0, 0, 0, 0],
        [1, -1, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 0],
        [0, 0, 1, -1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
    ]
    omega = [
        [0, 2, 0, 0, 0, 0],
        [0, -2, 0, 0, 0, 0],
        [0, 0, 0, 2, 0, 0],
        [0, 0, 0, -2, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
    ]
    return TwistData(rows, omega)


def char3_twist(lambda1, lambda2) -> TwistData:
    """Cube-root-of-unity averaging twist with two scaling parameters.

    The averaging matrix S has entries t = 1/3, omega t and omega^2 t,
    written as rational and omega parts: omega t = (0, t) and omega^2 t
    = (-t, -t).  Its columns are scaled by (lambda1, 1/lambda1, lambda2,
    1/lambda2, 1, 1).  Conjugation swaps the first two and the middle
    two rows, so the composed equations are rational for every nonzero
    rational lambda.
    """
    lambda1 = Fraction(lambda1)
    lambda2 = Fraction(lambda2)
    if lambda1 == 0 or lambda2 == 0:
        raise HmsError("twist parameters must be nonzero")
    t = Fraction(1, 3)
    z = Fraction(0)
    rows = [
        [-t, z, z, z, t, z],
        [z, -t, z, z, t, z],
        [z, z, -t, z, z, t],
        [z, z, z, -t, z, t],
        [t, t, z, z, t, z],
        [z, z, t, t, z, t],
    ]
    omega = [
        [-t, t, z, z, z, z],
        [t, -t, z, z, z, z],
        [z, z, -t, t, z, z],
        [z, z, t, -t, z, z],
        [z, z, z, z, z, z],
        [z, z, z, z, z, z],
    ]
    scale = [lambda1, 1 / lambda1, lambda2, 1 / lambda2, 1, 1]
    A, B = ([[x * d for x, d in zip(row, scale)] for row in S] for S in (rows, omega))
    return TwistData(A, B)


BUILTIN_TWISTS = ("identity", "rho0-archimedean", "char3-x")


def twist_by_name(name: str, lambda1=Fraction(1), lambda2=Fraction(1)) -> TwistData:
    if name == "identity":
        return identity_twist()
    if name == "rho0-archimedean":
        return rho0_twist()
    if name == "char3-x":
        return char3_twist(lambda1, lambda2)
    raise HmsError(f"unknown twist {name!r}; built-ins: {', '.join(BUILTIN_TWISTS)}")


def gram_matrix(q: SparsePoly):
    """Doubled Gram matrix G of a quadratic form: G[i][j] = B(e_i, e_j)
    for the polar form B(u, v) = q(u + v) - q(u) - q(v).  No halving, so
    the matrix is integral whenever q is; B(x, x) = 2 q(x)."""
    n = q.nvars
    G = [[0] * n for _ in range(n)]
    for exp, c in q.terms.items():
        idx = [i for i, e in enumerate(exp) for _ in range(e)]
        if len(idx) != 2:
            raise HmsError("gram_matrix needs a homogeneous quadratic")
        i, j = idx
        G[i][j] = G[i][j] + c
        G[j][i] = G[j][i] + c
    return G


def linear_row(f: SparsePoly):
    """Coefficient vector of a linear form."""
    row = [0] * f.nvars
    for exp, c in f.terms.items():
        if sum(exp) != 1:
            raise HmsError("linear_row needs a homogeneous linear form")
        row[exp.index(1)] = c
    return row


class CompiledForm:
    """A homogeneous integral form compiled for evaluation and for
    restriction to integer lines.

    Each term is kept as its coefficient and its variable indices, with
    multiplicity, so its value at a point is one product; `norm`, the
    sum of the absolute values of the coefficients, sizes `restrict`.
    A polynomial that is not homogeneous, or whose coefficients are not
    ints, is refused with HmsError.
    """

    __slots__ = ("degree", "norm", "terms")

    def __init__(self, f: SparsePoly):
        if not all(type(c) is int for c in f.terms.values()):
            raise HmsError("a compiled form needs int coefficients")
        self.terms = tuple(
            (c, tuple(i for i, e in enumerate(exp) for _ in range(e)))
            for exp, c in f.terms.items()
        )
        degrees = {len(idx) for _, idx in self.terms} or {0}
        if len(degrees) != 1:
            raise HmsError("a compiled form must be homogeneous")
        (self.degree,) = degrees
        self.norm = sum(abs(c) for c, _ in self.terms)

    def value(self, x):
        total = 0
        for c, idx in self.terms:
            for i in idx:
                c *= x[i]
            total += c
        return total

    def restrict(self, P, Q):
        """The coefficients c_0..c_d, c_i that of t^i u^(d-i), of the form
        on t P + u Q for int rows P and Q, by one evaluation (Kronecker
        substitution): the form at x_i = (P_i << b) + Q_i, the point
        t = 2^b, u = 1, is the sum of c_i 2^(b i), read off as signed
        base-2^b digits from c_0 up.

        The digits are exact.  On the line each coordinate is the linear
        form t P_i + u Q_i, whose coefficients have absolute sum at most
        reach = max_i (|P_i| + |Q_i|).  That sum is submultiplicative, so
        a term a x_i1 ... x_id restricts to a binary form whose
        coefficients have absolute sum at most |a| reach^d, and every
        |c_i| <= norm reach^d < 2^(b - 1) for b = bit_length(norm
        reach^d) + 1.  So c_0 is the residue r of the value mod 2^b, or
        r - 2^b when r >= 2^(b - 1), and subtracting c_0 and shifting by
        b leaves the sum of c_i 2^(b (i - 1)) for the next digit.  Rows
        that are not all ints raise HmsError."""
        if not all(type(x) is int for row in (P, Q) for x in row):
            raise HmsError("rows must be integers to restrict a form")
        reach = max(abs(p) + abs(q) for p, q in zip(P, Q))
        b = (self.norm * reach**self.degree).bit_length() + 1
        value = self.value([(p << b) + q for p, q in zip(P, Q)])
        mask, half = (1 << b) - 1, 1 << (b - 1)
        coeffs = []
        for _ in range(self.degree + 1):
            digit = value & mask
            if digit >= half:
                digit -= 1 << b
            coeffs.append(digit)
            value = (value - digit) >> b
        return tuple(coeffs)


@dataclass
class SurfaceModel:
    """Equations of one twisted model, with denominators cleared.

    forms[k] is the content-1 polynomial with int coefficients
    proportional to sigma_k composed with the twist, for every k from 1
    to 6; lines restrict it on integer numerators and p-adic points
    evaluate it as it is.  scales[k] restores the symmetric function
    exactly: sigma_k(M y) = scales[k] * forms[k](y).  The model itself
    is cut out by q1 = q2 = q4 = 0.

    `q1_row`, `gram` and `compiled` are built on first use and kept:
    the integer row of q1, the doubled Gram matrix of q2, and every
    form as a `CompiledForm`.  `charts` keeps the charts that
    `search.line_chart` builds on the model: the labc chart under
    "labc", a tangent-cone chart under its seed.
    """

    forms: dict
    scales: dict

    @property
    def q1(self) -> SparsePoly:
        return self.forms[1]

    @property
    def q2(self) -> SparsePoly:
        return self.forms[2]

    @property
    def q4(self) -> SparsePoly:
        return self.forms[4]

    @cached_property
    def q1_row(self):
        return linear_row(self.q1)

    @cached_property
    def gram(self):
        return gram_matrix(self.q2)

    @cached_property
    def compiled(self) -> dict:
        return {k: CompiledForm(f) for k, f in self.forms.items()}

    @cached_property
    def charts(self) -> dict:
        return {}


def twisted_equations(twist: TwistData) -> SurfaceModel:
    """Compose every sigma_k with the twist and clear denominators.

    With d the common denominator of the twist's two parts, the linear
    forms d s_i = sum_j d M[i][j] y_j have coefficients in Z[omega],
    held as int pairs (a, b) for a + b omega, omega^2 = -1 - omega.
    One pass of the recurrence e_k <- e_k + (d s_i) e_(k-1) over them,
    for i = 0..5, gives every sigma_k(d s) = d^k sigma_k(s).  Raises
    HmsError unless every composed coefficient is rational (its
    omega part vanishes); each scale is then divided by d^k.
    """
    entries = [x for part in (twist.matrix, twist.omega) for row in part for x in row]
    d, ints = integer_numerators(entries)
    es = [{(0,) * 6: (1, 0)}] + [{} for _ in range(6)]
    for i in range(6):
        row = zip(ints[6 * i : 6 * i + 6], ints[36 + 6 * i : 42 + 6 * i])
        linear = [(j, a, b) for j, (a, b) in enumerate(row) if a or b]
        for k in range(6, 0, -1):
            target = es[k]
            for exp, (c, e) in es[k - 1].items():
                for j, a, b in linear:
                    key = exp[:j] + (exp[j] + 1,) + exp[j + 1 :]
                    x, y = target.get(key, (0, 0))
                    # (a + b w)(c + e w) = ac - be + (ae + bc - be) w
                    target[key] = (x + a * c - b * e, y + a * e + b * c - b * e)
    forms = {}
    scales = {}
    for k in range(1, 7):
        if any(b for _, b in es[k].values()):
            raise HmsError(
                f"sigma_{k} of the twisted model is not conjugation-invariant"
            )
        scale, forms[k] = SparsePoly(6, {e: a for e, (a, _) in es[k].items()}).canonical()
        scales[k] = scale / d**k
    return SurfaceModel(forms=forms, scales=scales)


def ordinarity_from_valuations(v_sigma3, v_sigma5, v_D):
    """(v(u1), v(u2), ordinary) from the valuations of sigma_3, sigma_5, D.

    The point is ordinary when both ratios u1 and u2 have valuation
    <= 0.  A valuation of None is one not determined at the working
    precision; every result that depends on it is None, and ordinary is
    None (no verdict) unless both ratio valuations are determined.
    """
    v_u1 = None if None in (v_D, v_sigma5) else 5 * v_D - 6 * v_sigma5
    v_u2 = None if None in (v_u1, v_sigma3) else 3 * (v_D - v_sigma5) - v_sigma3
    ordinary = None if None in (v_u1, v_u2) else v_u1 <= 0 and v_u2 <= 0
    return v_u1, v_u2, ordinary

