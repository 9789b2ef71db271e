"""Unramified p-adic rings mod p^K, with sound valuations.

`UnramifiedRing` models (Z/p^K)[t]/(m) for m monic and irreducible
mod p: the ring of integers of the unramified extension of Q_p of
degree deg(m), with every element known to the uniform absolute
precision p^K.  Because the extension is unramified, the valuation of
an element is the minimum valuation of its coordinates.  A degree-1
ring, modulus (0, 1), is Z/p^K itself: the intersection points of
`search` live in one of these rings, degree 1 for a rational point and
degree d for d conjugate points.  At precision K = 1 the ring is the
finite field F_{p^d}: `quartics.roots_over_Fq` scans it, and the char-5
worked example of `verify` works in F_25 = F_5[t]/(t^2 + 3).

Indeterminacy is a value, never a silent rounding: an element that is
zero mod p^K has the valuation `IndeterminateValuation(K)`, a lower
bound, and callers that need a decision raise `PrecisionError`.
"""

from fractions import Fraction

from .errors import HmsError
from .scalars import split_p_power


class IndeterminateValuation:
    """Marker value: the valuation is only known to be >= lower_bound."""

    __slots__ = ("lower_bound",)

    def __init__(self, lower_bound: int):
        self.lower_bound = lower_bound

    def __eq__(self, other):
        return (
            isinstance(other, IndeterminateValuation)
            and self.lower_bound == other.lower_bound
        )

    def __repr__(self):
        return f"IndeterminateValuation(>= {self.lower_bound})"


class UnramifiedRing:
    """(Z/p^K)[t]/(m): integers of an unramified extension, mod p^K.

    `modulus` is monic with integer coefficients, irreducible mod p.
    """

    def __init__(self, p: int, modulus, K: int):
        modulus = tuple(int(c) for c in modulus)
        if modulus[-1] != 1:
            raise HmsError("modulus must be monic")
        if K < 1:
            raise HmsError("precision must be positive")
        self.p = p
        self.K = K
        self.mod = p**K
        self.modulus = tuple(c % self.mod for c in modulus)
        self.deg = len(modulus) - 1

    def elt(self, coeffs):
        coeffs = list(coeffs)
        return UElt(self, (coeffs + [0] * (self.deg - len(coeffs)))[: self.deg])

    def zero(self):
        return UElt(self, [0] * self.deg)

    def one(self):
        return UElt(self, [1] + [0] * (self.deg - 1))

    def gen(self):
        if self.deg < 2:
            raise HmsError("prime ring has no generator")
        return UElt(self, [0, 1] + [0] * (self.deg - 2))

    def from_rational(self, x):
        x = Fraction(x)
        if x.denominator % self.p == 0:
            raise HmsError("denominator not prime to p")
        c = x.numerator * pow(x.denominator, -1, self.mod) % self.mod
        return self.elt([c])

    def _reduce_poly(self, coeffs):
        # reduce mod (p^K, modulus) by long division against the monic modulus
        coeffs = [c % self.mod for c in coeffs]
        d = self.deg
        for i in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[i]
            if c == 0:
                continue
            coeffs[i] = 0
            for j in range(d):
                coeffs[i - d + j] = (coeffs[i - d + j] - c * self.modulus[j]) % self.mod
        return coeffs[:d] + [0] * max(0, d - len(coeffs))


class UElt:
    """Element of an UnramifiedRing, known mod p^K."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = tuple(c % ring.mod for c in coeffs)

    def _coerce(self, x):
        if isinstance(x, UElt):
            if x.ring is not self.ring and (
                x.ring.p != self.ring.p
                or x.ring.K != self.ring.K
                or x.ring.modulus != self.ring.modulus
            ):
                raise HmsError("mixed unramified rings")
            return x
        if isinstance(x, int):
            return self.ring.elt([x])
        if isinstance(x, Fraction):
            return self.ring.from_rational(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return UElt(self.ring, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return UElt(self.ring, [-a for a in self.coeffs])

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
        if isinstance(other, int):
            return UElt(self.ring, [a * other for a in self.coeffs])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prod = [0] * (2 * self.ring.deg - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                prod[i + j] += a * b
        if len(prod) > self.ring.deg:
            prod = self.ring._reduce_poly(prod)
        return UElt(self.ring, prod)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise HmsError("negative powers not supported in UElt")
        result = self.ring.one()
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
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.ring.mod, self.ring.modulus, self.coeffs))

    def valuation(self):
        """min coordinate valuation (unramified); indeterminate if 0 mod p^K."""
        vals = [split_p_power(c, self.ring.p)[0] for c in self.coeffs if c]
        if not vals:
            return IndeterminateValuation(self.ring.K)
        return min(vals)

    def __repr__(self):
        return f"UElt({self.coeffs} mod {self.ring.p}^{self.ring.K})"
