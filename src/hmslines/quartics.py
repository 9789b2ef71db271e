"""Binary quartic forms: the primitive integer model and real root counts.

A `BinaryQuartic` is made from the int coefficients c0..c4 of c4 t^4 +
c3 t^3 u + c2 t^2 u^2 + c1 t u^3 + c0 u^4 and is their primitive
integer model: the coefficients over their positive content, signs
kept, that content, and the discriminant of the primitive form.  The
discriminant normalization is fixed once and for all as

    disc = (4 I^3 - J^2) / 27,
    I = 12 c4 c0 - 3 c3 c1 + c2^2,
    J = 72 c4 c2 c0 + 9 c3 c2 c1 - 27 c4 c1^2 - 27 c0 c3^2 - 2 c2^3,

which coincides with the classical polynomial discriminant (an integer
polynomial in the coefficients, homogeneous of degree 6), so that of
the ints is the primitive one's times content^6.
"""

from math import gcd

from .errors import DegenerateLineError, HmsError


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
    """A nonzero binary quartic with int coefficients c0..c4, as its
    primitive integer model: `coeffs` the primitive coefficients, signs
    kept, `content` the positive gcd divided out of the ints it was made
    from, and `disc` the discriminant of `coeffs`, an int.

    The quartic of a line is made from its ints on the line's integer
    basis (`surface.CompiledForm.restrict`).  Raises HmsError unless
    there are five int coefficients, DegenerateLineError on the zero
    form."""

    __slots__ = ("coeffs", "content", "disc")

    def __init__(self, ints):
        ints = tuple(ints)
        if len(ints) != 5 or not all(type(c) is int for c in ints):
            raise HmsError("a binary quartic needs 5 int coefficients c0..c4")
        content = gcd(*ints)
        if content == 0:
            raise DegenerateLineError(
                "the quartic is the zero form: the line lies inside the degree-8 locus"
            )
        self.coeffs = tuple(c // content for c in ints)
        self.content = content
        self.disc = _disc27(*self.coeffs) // 27

    def __repr__(self):
        return f"BinaryQuartic({self.content} * c0..c4 = {self.coeffs})"

    def discriminant(self) -> int:
        """(4 I^3 - J^2)/27 of the ints the quartic was made from: of
        degree 6, so `disc` times content^6."""
        return self.disc * self.content**6


def real_root_count(q: BinaryQuartic) -> int:
    """Number of distinct real projective roots of a squarefree quartic.

    With (a, b, c, d, e) = (c4, c3, c2, c1, c0): a negative discriminant
    gives two real roots; a positive one gives four when
    P = 8ac - 3b^2 and D = 64a^3e - 16a^2c^2 + 16ab^2c - 16a^2bd - 3b^4
    are both negative, and none otherwise (Rees, Amer. Math. Monthly 29,
    1922; Lazard, J. Symbolic Comput. 5, 1988).  The discriminant, P and
    D have even degree, so they are read on the primitive `coeffs`, whose
    positive content keeps their signs.  When a = 0, [1:0] is a real root
    and b != 0, so P = -3b^2 and D = -3b^4 are negative and give the
    four that a positive discriminant then forces.  Raises HmsError
    unless q is squarefree: a nonzero discriminant.
    """
    if q.disc == 0:
        raise HmsError("real_root_count requires a squarefree quartic")
    if q.disc < 0:
        return 2
    e, d, c, b, a = q.coeffs
    P = 8 * a * c - 3 * b * b
    D = (
        64 * a**3 * e
        - 16 * a * a * c * c
        + 16 * a * b * b * c
        - 16 * a * a * b * d
        - 3 * b**4
    )
    return 4 if P < 0 and D < 0 else 0
