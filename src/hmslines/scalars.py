"""Exact scalar helpers shared by every layer.

The rational scalar of the tower is `fractions.Fraction` itself (already
reduced, denominator positive).  This module adds the p-adic valuation
and primitive-integer helpers every layer shares, and the sup-norm
shells of the parameter walks.  Finite fields are
`padics.UnramifiedRing`s at precision 1; the Eisenstein field Q(omega)
of the twists is written as pairs of rational matrices in `surface`.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import HmsError


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
    of some rationals; the scaled values are ints.  Values that are all
    ints (a bool is not) come back as they are, with d = 1."""
    values = list(values)
    if all(type(x) is int for x in values):
        return 1, values
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


def sup_norm_shell(radius: int, box):
    """Integer triples of sup norm exactly radius inside box, three
    ranges of step 1, in lexicographic order: z runs over its clipped
    range when |x| or |y| is the radius, and is only -radius and radius,
    where the box holds them, otherwise."""
    xs, ys, zs = (
        range(max(-radius, axis.start), min(radius + 1, axis.stop)) for axis in box
    )
    ends = [z for z in (-radius, radius) if z in zs]
    for x in xs:
        for y in ys:
            for z in zs if radius in (abs(x), abs(y)) else ends:
                yield x, y, z
