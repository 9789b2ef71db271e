"""Binary quartic forms: invariants, real root counts, roots over F_q.

A `BinaryQuartic` stores (c0..c4) for c4 t^4 + c3 t^3 u + c2 t^2 u^2 +
c1 t u^3 + c0 u^4.  The discriminant normalization is fixed once and
for all as

    disc = (4 I^3 - J^2) / 27,
    I = 12 c4 c0 - 3 c3 c1 + c2^2,
    J = 72 c4 c2 c0 + 9 c3 c2 c1 - 27 c4 c1^2 - 27 c0 c3^2 - 2 c2^3,

which coincides with the classical polynomial discriminant (an integer
polynomial in the coefficients, homogeneous of degree 6).  A rational
quartic is read through its `integer_model`, the primitive integer
coefficients and their discriminant, built once and kept on the
quartic; its own discriminant is that integer times the sixth power of
the scale back to the stored coefficients.
"""

from fractions import Fraction
from itertools import product

from .errors import DegenerateLineError, HmsError
from .mpoly import SparsePoly
from .padics import UnramifiedRing
from .scalars import primitive_integers


def _disc27(c0, c1, c2, c3, c4):
    """27 times the discriminant, 4 I^3 - J^2, at (c0, .., c4)."""
    I = 12 * (c4 * c0) - 3 * (c3 * c1) + c2 * c2
    J = (
        72 * (c4 * c2 * c0)
        + 9 * (c3 * c2 * c1)
        - 27 * (c4 * c1 * c1)
        - 27 * (c0 * c3 * c3)
        - 2 * (c2 * c2 * c2)
    )
    return 4 * I**3 - J * J


class BinaryQuartic:
    """Homogeneous binary quartic; degenerate means identically zero.

    The quartic of a line has int coefficients, on the line's integer
    basis (`surface.CompiledForm.restrict`); the coefficients may also
    be Fractions, or elements of a finite field.
    `_model` keeps the `integer_model` once it is built."""

    __slots__ = ("coeffs", "_model")

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != 5:
            raise HmsError("need exactly 5 coefficients c0..c4")
        self.coeffs = coeffs
        self._model = None

    @staticmethod
    def from_sparse(f: SparsePoly) -> "BinaryQuartic":
        if f.nvars != 2:
            raise HmsError("not a binary form")
        if not f.is_zero and f.homogeneous_degree() != 4:
            raise HmsError("not homogeneous of degree 4")
        return BinaryQuartic([f.coefficient((i, 4 - i)) for i in range(5)])

    @property
    def is_degenerate(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        return f"BinaryQuartic(c0..c4 = {self.coeffs})"

    def discriminant(self):
        """(4 I^3 - J^2)/27 of a rational quartic, exactly.

        It is homogeneous of degree 6, so it is the `integer_model`
        discriminant times the sixth power of the positive scale from
        the model to this quartic: an int when every coefficient is one,
        else a Fraction.
        """
        ics, disc = integer_model(self)
        i = next(i for i, c in enumerate(ics) if c)
        disc = disc * (Fraction(self.coeffs[i]) / ics[i]) ** 6
        return disc.numerator if all(isinstance(c, int) for c in self.coeffs) else disc


def integer_model(q: BinaryQuartic):
    """(ics, disc): the primitive integer coefficients c0..c4 of a
    rational quartic, signs kept, and their discriminant, an int.

    Built on first use and kept on q, so every section of a certificate
    reads the same model.  Raises HmsError unless the coefficients are
    ints or Fractions, DegenerateLineError on the zero form.
    """
    if q._model is None:
        if not all(isinstance(c, (int, Fraction)) for c in q.coeffs):
            raise HmsError("the integer model needs rational coefficients")
        if q.is_degenerate:
            raise DegenerateLineError("the zero form has no primitive integer model")
        ics = tuple(primitive_integers(q.coeffs))
        q._model = ics, _disc27(*ics) // 27
    return q._model


# -- real root counting ------------------------------------------------


def real_root_count(q: BinaryQuartic) -> int:
    """Number of distinct real projective roots of a squarefree quartic.

    With (a, b, c, d, e) = (c4, c3, c2, c1, c0): a negative discriminant
    gives two real roots; a positive one gives four when
    P = 8ac - 3b^2 and D = 64a^3e - 16a^2c^2 + 16ab^2c - 16a^2bd - 3b^4
    are both negative, and none otherwise (Rees, Amer. Math. Monthly 29,
    1922; Lazard, J. Symbolic Comput. 5, 1988).  The discriminant, P and
    D have even degree, so they are read on the `integer_model`, whose
    positive scale keeps their signs.  When a = 0, [1:0] is a real root
    and b != 0, so P = -3b^2 and D = -3b^4 are negative and give the
    four that a positive discriminant then forces.  Raises HmsError
    unless q is squarefree: nonzero with a nonzero discriminant.
    """
    ics, disc = ((), 0) if q.is_degenerate else integer_model(q)
    if disc == 0:
        raise HmsError("real_root_count requires a squarefree quartic")
    if disc < 0:
        return 2
    e, d, c, b, a = ics
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


def _divide_linear(cs, x):
    """(quotient, remainder) of the coefficient list by (t - x): one
    synthetic division, whose remainder is the value at x."""
    acc = cs[-1]
    quotient = [acc]
    for c in reversed(cs[:-1]):
        acc = acc * x + c
        quotient.append(acc)
    value = quotient.pop()
    return quotient[::-1], value


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
    if all(c == 0 for c in cs):
        raise DegenerateLineError("roots of the zero form")
    roots = []
    inf_mult = 0
    while cs and cs[-1] == 0:
        cs.pop()
        inf_mult += 1
    if inf_mult:
        roots.append(((one, zero), inf_mult))
    for digits in product(range(field.p), repeat=field.deg):
        x = field.elt(digits)
        mult = 0
        quotient, value = _divide_linear(cs, x)
        while value == 0:
            mult += 1
            quotient, value = _divide_linear(quotient, x)
        if mult:
            roots.append(((x, one), mult))
    return roots
