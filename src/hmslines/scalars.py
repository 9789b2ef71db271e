"""Exact scalars: rationals, the Eisenstein field Q(omega), and F_p / F_p^2.

The rational scalar of the tower is `fractions.Fraction` itself (already
reduced, denominator positive).  This module adds the quadratic layers:

* `CycloElt` -- a + b*omega with omega^2 + omega + 1 = 0, so that
  sqrt(-3) = 2*omega + 1 and complex conjugation is omega -> omega^2.
* `Fq` / `FqElt` -- F_p and F_{p^2} with a fixed basis {1, w}, w^2 = n
  for a fixed non-residue n.  For p = 2 mod 3 (in particular p = 5) the
  non-residue is pinned to -3 so that w literally plays sqrt(-3) and the
  reduction map from Q(omega) is basis-compatible.
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


def _smallest_nonresidue(p: int) -> int:
    for n in range(2, p):
        if pow(n, (p - 1) // 2, p) == p - 1:
            return n
    raise HmsError(f"no quadratic non-residue mod {p}")


class Fq:
    """The field F_p (deg=1) or F_{p^2} (deg=2) with basis {1, w}, w^2 = n.

    For deg 2 the non-residue n defaults to -3 mod p whenever -3 is a
    non-residue (true exactly for p = 2 mod 3, p > 3), which makes w a
    square root of -3; otherwise the smallest positive non-residue is used.
    """

    def __init__(self, p: int, deg: int = 1, nonresidue=None):
        if p < 2 or any(p % k == 0 for k in range(2, isqrt(p) + 1)):
            raise HmsError(f"{p} is not prime")
        if deg not in (1, 2):
            raise HmsError("only F_p and F_p^2 are supported")
        self.p = p
        self.deg = deg
        self.q = p**deg
        if deg == 2:
            if nonresidue is None:
                cand = (-3) % p
                if cand != 0 and pow(cand, (p - 1) // 2, p) == p - 1:
                    nonresidue = cand
                else:
                    nonresidue = _smallest_nonresidue(p)
            nonresidue %= p
            if pow(nonresidue, (p - 1) // 2, p) != p - 1:
                raise HmsError(f"{nonresidue} is a square mod {p}")
            self.n = nonresidue
        else:
            self.n = None

    def elt(self, c0, c1=0):
        return FqElt(self, c0, c1)

    def zero(self):
        return FqElt(self, 0, 0)

    def one(self):
        return FqElt(self, 1, 0)

    def w(self):
        if self.deg != 2:
            raise HmsError("w lives in the quadratic extension only")
        return FqElt(self, 0, 1)

    def elements(self):
        if self.deg == 1:
            for c0 in range(self.p):
                yield FqElt(self, c0, 0)
        else:
            for c0 in range(self.p):
                for c1 in range(self.p):
                    yield FqElt(self, c0, c1)

    def omega(self):
        """A primitive cube root of unity, when one exists in the field."""
        if self.deg == 2:
            if self.q % 3 != 1:
                raise HmsError("no primitive cube root of unity here")
            if self.n == (-3) % self.p:
                # omega = (-1 + w)/2
                inv2 = pow(2, -1, self.p)
                return FqElt(self, (-inv2) % self.p, inv2)
        for x in self.elements():
            if x * x + x + 1 == 0 and x != self.one():
                return x
        raise HmsError("no primitive cube root of unity here")

    def from_cyclo(self, z: CycloElt):
        """Reduce a + b*omega into this field (denominators prime to p)."""
        a = self._red(z.a)
        b = self._red(z.b)
        if self.deg == 1:
            if self.p == 3:
                # omega = 1 is the double root of x^2+x+1 mod 3
                return FqElt(self, (a + b) % 3, 0)
            if self.p % 3 != 1:
                raise HmsError(f"omega does not reduce into F_{self.p}")
            om = self.omega()
            return FqElt(self, a, 0) + FqElt(self, b, 0) * om
        om = self.omega()
        return FqElt(self, a, 0) + FqElt(self, b, 0) * om

    def _red(self, x) -> int:
        x = Fraction(x)
        if x.denominator % self.p == 0:
            raise HmsError(f"denominator of {x} not prime to {self.p}")
        return (x.numerator * pow(x.denominator, -1, self.p)) % self.p

    def __eq__(self, other):
        return (
            isinstance(other, Fq)
            and (self.p, self.deg, self.n) == (other.p, other.deg, other.n)
        )

    def __hash__(self):
        return hash((self.p, self.deg, self.n))

    def __repr__(self):
        if self.deg == 1:
            return f"Fq({self.p})"
        return f"Fq({self.p}, 2, w^2={self.n})"


class FqElt:
    """Element c0 + c1*w of an `Fq` field (c1 = 0 identically for F_p)."""

    __slots__ = ("field", "c0", "c1")

    def __init__(self, field, c0, c1=0):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "c0", c0 % field.p)
        object.__setattr__(self, "c1", c1 % field.p if field.deg == 2 else 0)
        if field.deg == 1 and c1 % field.p != 0:
            raise HmsError("nonzero w part in a prime field")

    def __setattr__(self, name, value):
        raise AttributeError("FqElt is immutable")

    def _coerce(self, x):
        if isinstance(x, FqElt):
            if x.field != self.field:
                raise HmsError("mixed finite fields")
            return x
        if isinstance(x, int):
            return FqElt(self.field, x, 0)
        if isinstance(x, Fraction):
            return FqElt(self.field, self.field._red(x), 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FqElt(self.field, self.c0 + o.c0, self.c1 + o.c1)

    __radd__ = __add__

    def __neg__(self):
        return FqElt(self.field, -self.c0, -self.c1)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        if self.field.deg == 1:
            return FqElt(self.field, self.c0 * o.c0, 0)
        n = self.field.n
        return FqElt(
            self.field,
            (self.c0 * o.c0 + self.c1 * o.c1 * n) % p,
            (self.c0 * o.c1 + self.c1 * o.c0) % p,
        )

    __rmul__ = __mul__

    def inverse(self):
        p = self.field.p
        if self.field.deg == 1:
            if self.c0 == 0:
                raise ZeroDivisionError("inverse of zero")
            return FqElt(self.field, pow(self.c0, -1, p), 0)
        nrm = (self.c0 * self.c0 - self.field.n * self.c1 * self.c1) % p
        if nrm == 0:
            raise ZeroDivisionError("inverse of zero")
        ninv = pow(nrm, -1, p)
        return FqElt(self.field, self.c0 * ninv, -self.c1 * ninv)

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

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = self.field.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.c0 == o.c0 and self.c1 == o.c1

    def __hash__(self):
        return hash((self.field, self.c0, self.c1))

    @property
    def is_zero(self):
        return self.c0 == 0 and self.c1 == 0

    def __repr__(self):
        if self.field.deg == 1:
            return f"FqElt({self.field.p}; {self.c0})"
        return f"FqElt({self.field.p}^2; {self.c0} + {self.c1}w)"
