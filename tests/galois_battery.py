"""Battery of quartics with known Galois groups, shared by two tests.

Base polynomials are classical examples whose groups are standard
references; shifting t -> t + k u changes the polynomial but not the
splitting field, so each base fans out into several battery members.
The cycle types each group allows are `exact_oracles.ALLOWED_TYPES`.
"""

from fractions import Fraction

from hmslines.quartics import BinaryQuartic
from hmslines.scalars import primitive_integers

# (a0, a1, a2, a3) of monic x^4 + a3 x^3 + a2 x^2 + a1 x + a0, label
BASES = [
    ((-1, -1, 0, 0), "S4"),  # x^4 - x - 1
    ((12, 8, 0, 0), "A4"),  # x^4 + 8x + 12
    ((-2, 0, 0, 0), "D4"),  # x^4 - 2
    ((2, 0, 0, 0), "D4"),  # x^4 + 2
    ((2, 0, 4, 0), "C4"),  # x^4 + 4x^2 + 2
    ((1, 1, 1, 1), "C4"),  # fifth cyclotomic polynomial
    ((1, 0, -10, 0), "V4"),  # x^4 - 10x^2 + 1, splitting field Q(v2, v3)
    ((1, 0, 0, 0), "V4"),  # x^4 + 1, eighth cyclotomic polynomial
]

SHIFTS = (0, 1, -1, 2, -2)

# a type whose presence separates the group from its subgroups; it must
# show up among the Frobenius classes of any decent prime range
WITNESS_TYPES = {
    "S4": (1, 1, 2),
    "A4": (1, 3),
    "D4": (1, 1, 2),
    "C4": (4,),
    "V4": (2, 2),
}


def shifted(base, k):
    """Primitive integer coefficients of p(x + k) for monic quartic p
    given by base."""
    a0, a1, a2, a3 = base
    coeffs = [Fraction(a0), Fraction(a1), Fraction(a2), Fraction(a3), Fraction(1)]
    out = [Fraction(0)] * 5
    # expand sum c_i (x + k)^i
    for i, c in enumerate(coeffs):
        binom = [Fraction(1)]
        for _ in range(i):
            binom = [Fraction(0)] + binom
            for j in range(len(binom) - 1):
                binom[j] += binom[j + 1] * k
        for j, b in enumerate(binom):
            out[j] += c * b
    return primitive_integers(out)


def battery():
    """Yield (BinaryQuartic, label) pairs; 40 members."""
    for base, label in BASES:
        for k in SHIFTS:
            yield BinaryQuartic(shifted(base, k)), label


def good_primes(q, count):
    """Odd primes not dividing the discriminant, in increasing order."""
    bad = abs(q.discriminant())
    found = []
    p = 2
    while len(found) < count:
        p += 1
        if any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            continue
        if bad % p == 0:
            continue
        found.append(p)
    return found
