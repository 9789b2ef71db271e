"""Binary quartic forms: invariants, real root counts, roots over F_q.

A `BinaryQuartic` stores (c0..c4) for c4 t^4 + c3 t^3 u + c2 t^2 u^2 +
c1 t u^3 + c0 u^4.  The discriminant normalization is fixed once and
for all as

    disc = (4 I^3 - J^2) / 27,
    I = 12 c4 c0 - 3 c3 c1 + c2^2,
    J = 72 c4 c2 c0 + 9 c3 c2 c1 - 27 c4 c1^2 - 27 c0 c3^2 - 2 c2^3,

which coincides with the classical polynomial discriminant (an integer
polynomial in the coefficients, homogeneous of degree 6).  Rational
(int/Fraction) coefficients are scaled by their common denominator D
and the discriminant is taken on those integer numerators, then divided
by D^6 exactly.  Every other scalar ring (F_q, p-adic, characteristic 3
included) evaluates the integral expansion `_DISC_POLY`.
"""

from fractions import Fraction
from itertools import product

from .errors import DegenerateLineError, HmsError
from .mpoly import SparsePoly, coeff_is_zero
from .padics import UnramifiedRing
from .scalars import integer_numerators


def _disc27(a, b, c, d, e):
    """27 times the discriminant, 4 I^3 - J^2, at (c4, c3, c2, c1, c0)."""
    I = 12 * (a * e) - 3 * (b * d) + c * c
    J = (
        72 * (a * c * e)
        + 9 * (b * c * d)
        - 27 * (a * d * d)
        - 27 * (e * b * b)
        - 2 * (c * c * c)
    )
    return 4 * I**3 - J * J


def _universal_discriminant():
    disc27 = _disc27(*(SparsePoly.variable(i, 5, Fraction(1)) for i in range(5)))
    disc_terms = {}
    for exp, coeff in disc27.terms.items():
        q = Fraction(coeff) / 27
        if q.denominator != 1:
            raise HmsError("discriminant expansion failed to be integral")
        disc_terms[exp] = int(q)
    return SparsePoly(5, disc_terms)


_DISC_POLY = _universal_discriminant()


class BinaryQuartic:
    """Homogeneous binary quartic; degenerate means identically zero."""

    __slots__ = ("coeffs", "_disc")

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != 5:
            raise HmsError("need exactly 5 coefficients c0..c4")
        self.coeffs = coeffs
        self._disc = None

    @staticmethod
    def from_sparse(f: SparsePoly) -> "BinaryQuartic":
        if f.nvars != 2:
            raise HmsError("not a binary form")
        if not f.is_zero and f.homogeneous_degree() != 4:
            raise HmsError("not homogeneous of degree 4")
        return BinaryQuartic([f.coefficient((i, 4 - i)) for i in range(5)])

    @property
    def is_degenerate(self) -> bool:
        return all(coeff_is_zero(c) for c in self.coeffs)

    def __eq__(self, other):
        return isinstance(other, BinaryQuartic) and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __repr__(self):
        return f"BinaryQuartic(c0..c4 = {self.coeffs})"

    def _inv_args(self):
        c0, c1, c2, c3, c4 = self.coeffs
        return (c4, c3, c2, c1, c0)

    def discriminant(self):
        """(4 I^3 - J^2)/27, exactly, over any scalar ring.

        Evaluated once per quartic; later calls return the kept value.
        """
        return stored_discriminant(self)


def stored_discriminant(q: BinaryQuartic):
    """The discriminant of q, evaluated on first use and kept on q.

    `BinaryQuartic.discriminant` returns it; the Galois section of a
    certificate reads it here to reuse the value the certificate holds.
    """
    if q._disc is None:
        if q.is_degenerate:
            raise DegenerateLineError("discriminant of the zero form")
        args = q._inv_args()
        if all(isinstance(c, (int, Fraction)) for c in args):
            # homogeneous of degree 6: disc(c) = disc(D c) / D^6
            den, ints = integer_numerators(args)
            disc = _disc27(*ints) // 27
            exact_ints = all(isinstance(c, int) for c in args)
            q._disc = disc if exact_ints else Fraction(disc, den**6)
        else:
            q._disc = _DISC_POLY.evaluate(args)
    return q._disc


# -- real root counting ------------------------------------------------


def real_root_count(q: BinaryQuartic) -> int:
    """Number of distinct real projective roots of a squarefree quartic.

    With (a, b, c, d, e) = (c4, c3, c2, c1, c0): a negative discriminant
    gives two real roots; a positive one gives four when
    P = 8ac - 3b^2 and D = 64a^3e - 16a^2c^2 + 16ab^2c - 16a^2bd - 3b^4
    are both negative, and none otherwise (Rees, Amer. Math. Monthly 29,
    1922; Lazard, J. Symbolic Comput. 5, 1988).  P and D have even
    degree, so rescaling q keeps their signs.  When a = 0, [1:0] is a
    real root and b != 0, so P = -3b^2 and D = -3b^4 are negative and
    give the four that a positive discriminant then forces.  Raises
    HmsError unless q is squarefree: nonzero with a nonzero discriminant.
    """
    disc = 0 if q.is_degenerate else stored_discriminant(q)
    if disc == 0:
        raise HmsError("real_root_count requires a squarefree quartic")
    if disc < 0:
        return 2
    a, b, c, d, e = q._inv_args()
    P = 8 * a * c - 3 * b * b
    D = (
        64 * a**3 * e
        - 16 * a * a * c * c
        + 16 * a * b * b * c
        - 16 * a * a * b * d
        - 3 * b**4
    )
    return 4 if P < 0 and D < 0 else 0


# -- roots over finite fields ------------------------------------------


def _eval_list(cs, x, zero):
    val = zero
    for c in reversed(cs):
        val = val * x + c
    return val


def _deflate_linear(cs, root):
    """Divide the coefficient list by (t - root); remainder must vanish."""
    out = []
    acc = None
    for c in reversed(cs):
        acc = c if acc is None else acc * root + c
        out.append(acc)
    rem = out.pop()
    if not coeff_is_zero(rem):
        raise HmsError("not a root")
    return list(reversed(out))


def roots_over_Fq(q: BinaryQuartic, field: UnramifiedRing):
    """All projective roots over F_q by exhaustive scan, with multiplicity.

    field is F_q = F_{p^d} as an `UnramifiedRing` at precision 1; the
    coefficients of q are its elements, ints or Fractions.  Returns a
    list of ((t, u), multiplicity) pairs; (t, u) is the canonical
    representative, u = 1 for affine roots and (1, 0) at infinity.  The
    scan caps the prime at 10^4 (the intended use is p in {3, 5}).
    """
    if field.K != 1:
        raise HmsError("roots_over_Fq needs a finite field: precision 1")
    if field.p > 10**4:
        raise HmsError("prime too large for exhaustive scan")
    zero, one = field.zero(), field.one()
    cs = [zero + c for c in q.coeffs]
    if all(coeff_is_zero(c) for c in cs):
        raise DegenerateLineError("roots of the zero form")
    roots = []
    inf_mult = 0
    while cs and coeff_is_zero(cs[-1]):
        cs.pop()
        inf_mult += 1
    if inf_mult:
        roots.append(((one, zero), inf_mult))
    for digits in product(range(field.p), repeat=field.deg):
        x = field.elt(digits)
        mult = 0
        work = cs
        while work and coeff_is_zero(_eval_list(work, x, zero)):
            work = _deflate_linear(work, x)
            mult += 1
        if mult:
            roots.append(((x, one), mult))
    return roots
