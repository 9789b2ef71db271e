"""Exact scalars: rationals and the Eisenstein field Q(omega).

The rational scalar of the tower is `fractions.Fraction` itself (already
reduced, denominator positive).  This module adds the quadratic layer
`CycloElt` -- a + b*omega with omega^2 + omega + 1 = 0, so that
sqrt(-3) = 2*omega + 1 and complex conjugation is omega -> omega^2 --
and the p-adic valuation and primitive-integer helpers every layer
shares.  Finite fields are `padics.UnramifiedRing`s at precision 1.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import HmsError, RationalityError


def is_square_rational(x) -> bool:
    """Exact test for x in (Q)^2 (x = 0 counts as a square)."""
    x = Fraction(x)
    if x < 0:
        return False
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    return rn * rn == n and rd * rd == d


def split_p_power(n: int, p: int):
    """(v, unit) with n = p^v * unit, unit prime to p; n a nonzero integer."""
    if n == 0:
        raise HmsError("valuation of exact zero is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def valuation_of_rational(x, p: int):
    """Exact p-adic valuation of a nonzero rational; raises on x = 0."""
    x = Fraction(x)
    v_num, _ = split_p_power(x.numerator, p)
    v_den, _ = split_p_power(x.denominator, p)
    return v_num - v_den


def integer_numerators(values):
    """(d, [d * x for x in values]) for d the least common denominator
    of some rationals; the scaled values are ints."""
    values = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in values]
    den = lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


def primitive_integers(values):
    """Integers proportional to the rationals `values`, with content 1.

    The common factor is positive, so signs are kept.
    """
    _, ints = integer_numerators(values)
    content = gcd(*ints)
    if content == 0:
        raise HmsError("cannot normalize the zero vector")
    return [c // content for c in ints]


def sup_norm_shell(radius: int):
    """Integer triples of sup norm exactly radius, in lexicographic order:
    z runs over the whole range when |x| or |y| is the radius, and is
    only -radius and radius otherwise."""
    full = range(-radius, radius + 1)
    for x in full:
        for y in full:
            zs = full if radius in (abs(x), abs(y)) else (-radius, radius)
            for z in zs:
                yield x, y, z


class CycloElt:
    """Element a + b*omega of Q(omega), omega a primitive cube root of unity."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("CycloElt is immutable")

    @staticmethod
    def _coerce(x):
        if isinstance(x, CycloElt):
            return x
        if isinstance(x, (int, Fraction)):
            return CycloElt(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloElt(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return CycloElt(-self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloElt(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a1 + b1 w)(a2 + b2 w), w^2 = -1 - w
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        return CycloElt(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 - b1 * b2)

    __rmul__ = __mul__

    def conjugate(self):
        """Galois conjugation omega -> omega^2 = -1 - omega."""
        return CycloElt(self.a - self.b, -self.b)

    def norm(self) -> Fraction:
        return self.a * self.a - self.a * self.b + self.b * self.b

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(omega)")
        c = self.conjugate()
        return CycloElt(c.a / n, c.b / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def rational_part(self) -> Fraction:
        """The value as a Fraction; raises unless the omega part vanishes."""
        if self.b != 0:
            raise RationalityError(f"{self} has nonzero omega part")
        return self.a

    def __repr__(self):
        if self.b == 0:
            return f"CycloElt({self.a})"
        return f"CycloElt({self.a}, {self.b})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*w" if self.b != 1 else "w"
        sign = "+" if self.b > 0 else "-"
        bb = abs(self.b)
        bt = "w" if bb == 1 else f"{bb}*w"
        return f"{self.a} {sign} {bt}"


OMEGA = CycloElt(0, 1)
SQRT_MINUS_3 = CycloElt(1, 2)  # (2w+1)^2 = -3
