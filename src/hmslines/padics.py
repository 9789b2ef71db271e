"""Capped-precision p-adic approximants with explicit indeterminacy.

A `PadicApprox` is either

* certified nonzero: value = p^valuation * unit + O(p^(valuation+N)),
  with unit a p-unit reduced into [1, p^N), N >= 1 the relative
  precision; or
* zero at this precision: all that is known is value = O(p^bound).

Indeterminacy is a value, never a silent rounding: `valuation()` returns
an `IndeterminateValuation` lower bound for zero-at-precision elements,
and callers that need a decision re-lift at higher precision.

`UnramifiedRing` models Z_p[t]/(m) for m monic and irreducible mod p,
i.e. the ring of integers of the unramified extension of degree deg(m),
with every element known to a uniform absolute precision p^K.  Because
the extension is unramified, the valuation of an element is the minimum
valuation of its coordinates.
"""

from fractions import Fraction

from .errors import HmsError, PrecisionError
from .scalars import split_p_power, valuation_of_rational


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


class PadicApprox:
    __slots__ = ("p", "v", "unit", "N")

    def __init__(self, p, v, unit, N):
        # Canonical forms only; use the constructors below.
        self.p = p
        self.v = v
        self.unit = unit
        self.N = N

    @staticmethod
    def nonzero(p: int, v: int, unit: int, N: int) -> "PadicApprox":
        """Canonicalize p^v * unit known mod p^(v+N); strips p-powers from unit."""
        if N <= 0:
            raise HmsError("relative precision must be positive")
        m = p**N
        unit %= m
        if unit == 0:
            return PadicApprox.zero_at(p, v + N)
        shift, unit = split_p_power(unit, p)
        # absolute precision is unchanged; relative precision shrinks
        N -= shift
        if N <= 0:
            # value was indistinguishable from zero after all
            return PadicApprox.zero_at(p, v + N + shift)
        return PadicApprox(p, v + shift, unit % (p**N), N)

    @staticmethod
    def zero_at(p: int, bound: int) -> "PadicApprox":
        """The zero-at-precision element: value = O(p^bound)."""
        return PadicApprox(p, bound, 0, 0)

    @staticmethod
    def from_rational(x, p: int, N: int) -> "PadicApprox":
        return lift_to_padic(x, p, N)

    @property
    def is_zero_at_precision(self) -> bool:
        return self.unit == 0

    @property
    def abs_precision(self) -> int:
        """The value is known modulo p^abs_precision."""
        return self.v + self.N

    def valuation(self):
        if self.unit == 0:
            return IndeterminateValuation(self.abs_precision)
        return self.v

    def valuation_or_raise(self, what="value"):
        val = self.valuation()
        if isinstance(val, IndeterminateValuation):
            raise PrecisionError(
                f"{what} is zero at precision O({self.p}^{val.lower_bound}); "
                "re-lift at higher precision",
                needed=val.lower_bound + 1,
            )
        return val

    def _coerce(self, x):
        if isinstance(x, PadicApprox):
            if x.p != self.p:
                raise HmsError("mixed primes in p-adic arithmetic")
            return x
        if isinstance(x, (int, Fraction)):
            x = Fraction(x)
            if x == 0:
                # exact zero: known to any precision; cap at our bound
                return PadicApprox.zero_at(self.p, self.abs_precision + 1)
            # lift so the exact value loses nothing against self's window
            vx = valuation_of_rational(x, self.p)
            rel = max(self.abs_precision - vx, 1)
            return lift_to_padic(x, self.p, rel)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.p
        bound = min(self.abs_precision, o.abs_precision)
        vm = min(self.v, o.v) if (self.unit or o.unit) else bound
        vm = min(vm, bound)
        m = p ** (bound - vm) if bound > vm else 1
        total = 0
        for z in (self, o):
            if z.unit:
                total += z.unit * p ** (z.v - vm)
        total %= m
        if bound <= vm or total == 0:
            return PadicApprox.zero_at(p, bound)
        return PadicApprox.nonzero(p, vm, total, bound - vm)

    __radd__ = __add__

    def __neg__(self):
        if self.unit == 0:
            return self
        return PadicApprox(self.p, self.v, (-self.unit) % self.p**self.N, self.N)

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
        p = self.p
        if self.unit == 0 or o.unit == 0:
            # v(xy) >= bound_or_valuation(x) + bound_or_valuation(y)
            bx = self.abs_precision if self.unit == 0 else self.v
            by = o.abs_precision if o.unit == 0 else o.v
            return PadicApprox.zero_at(p, bx + by)
        N = min(self.N, o.N)
        return PadicApprox.nonzero(p, self.v + o.v, self.unit * o.unit, N)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.unit == 0:
            raise PrecisionError(
                "division by a value that is zero at this precision",
                needed=o.abs_precision + 1,
            )
        if self.unit == 0:
            return PadicApprox.zero_at(self.p, self.abs_precision - o.v)
        N = min(self.N, o.N)
        inv = pow(o.unit, -1, self.p**N)
        return PadicApprox.nonzero(self.p, self.v - o.v, self.unit * inv, N)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if k < 0:
            return (1 / self) ** (-k)
        if self.unit == 0:
            if k == 0:
                raise HmsError("0^0 at finite precision")
            return PadicApprox.zero_at(self.p, self.abs_precision * k)
        if k == 0:
            return PadicApprox.nonzero(self.p, 0, 1, self.N)
        m = self.p**self.N
        return PadicApprox.nonzero(self.p, self.v * k, pow(self.unit, k, m), self.N)

    def __eq__(self, other):
        if not isinstance(other, PadicApprox):
            return NotImplemented
        return (self.p, self.v, self.unit, self.N) == (
            other.p,
            other.v,
            other.unit,
            other.N,
        )

    def __repr__(self):
        if self.unit == 0:
            return f"PadicApprox(O({self.p}^{self.abs_precision}))"
        return (
            f"PadicApprox({self.p}^{self.v} * {self.unit}"
            f" + O({self.p}^{self.abs_precision}))"
        )


def lift_to_padic(x, p: int, prec: int) -> PadicApprox:
    """Lift a nonzero rational with denominator prime to p; exact valuation.

    Raises on x = 0 (an exact zero has no finite description here; use
    `PadicApprox.zero_at` with an explicit bound instead).
    """
    x = Fraction(x)
    if x == 0:
        raise HmsError("cannot lift exact zero; use PadicApprox.zero_at")
    if prec <= 0:
        raise HmsError("precision must be positive")
    v_num, num = split_p_power(x.numerator, p)
    v_den, den = split_p_power(x.denominator, p)
    v = v_num - v_den
    m = p**prec
    unit = (num % m) * pow(den, -1, m) % m
    return PadicApprox.nonzero(p, v, unit, prec)


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
        coeffs = list(coeffs) + [0] * (self.deg - len(list(coeffs)))
        return UElt(self, coeffs[: self.deg])

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
        if isinstance(x, (int, Fraction)):
            return self.ring.from_rational(Fraction(x))
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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prod = [0] * (2 * self.ring.deg - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                prod[i + j] += a * b
        return UElt(self.ring, self.ring._reduce_poly(prod))

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

    def valuation(self):
        """min coordinate valuation (unramified); indeterminate if 0 mod p^K."""
        vals = [split_p_power(c, self.ring.p)[0] for c in self.coeffs if c]
        if not vals:
            return IndeterminateValuation(self.ring.K)
        return min(vals)

    def valuation_or_raise(self, what="value"):
        val = self.valuation()
        if isinstance(val, IndeterminateValuation):
            raise PrecisionError(
                f"{what} is zero mod p^{self.ring.K}; re-lift at higher precision",
                needed=self.ring.K + 1,
            )
        return val

    def __repr__(self):
        return f"UElt({self.coeffs} mod {self.ring.p}^{self.ring.K})"
