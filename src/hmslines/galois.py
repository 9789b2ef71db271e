"""Galois-type classification of binary quartics over Q.

A fixed Frobenius sieve comes first.  At each odd prime p of
`SIEVE_PRIMES` that does not divide the discriminant D of the primitive
integer model, the cycle type of Frobenius on the four roots is the
pattern of factor degrees of q mod p (Dedekind).  It is read off the
number of roots of q on P^1(F_p) and, when there are none, the Legendre
symbol (D/p): a square D gives two quadratic factors, a non-square one
quartic factor (Stickelberger).  A type (4), or a (1,3) together with a
(2,2), proves q irreducible; an irreducible q with a (1,3) has a 3-cycle
in its group, so the group is A4 or S4 and the square class of D picks
one.

Whatever the sieve leaves undecided (reducible quartics, D4, C4, V4 and
the rare S4 or A4 quartic the prime list misses) is factored over Q by
Zassenhaus.  The transitive labels are then decided by the resolvent
cubic together with the square class of the discriminant and, for the
dihedral/cyclic split, reducibility of two auxiliary quadratics over
Q(sqrt(disc)).  Reducible quartics get C1/C2 when the splitting field is
trivial/quadratic and the label "reducible-composite" otherwise.  All of
these groups are solvable, which is what the certificate machinery
ultimately relies on.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import DegenerateLineError, HmsError
from .hensel import factor_binary_quartic, factor_squarefree_int
from .quartics import BinaryQuartic, integer_model
from .scalars import is_square_rational, primitive_integers

GROUP_ORDERS = {"S4": 24, "A4": 12, "D4": 8, "C4": 4, "V4": 4, "C2": 2, "C1": 1}

# the odd primes below 100, tried in order until the cycle types decide
SIEVE_PRIMES = tuple(
    p for p in range(3, 100, 2) if all(p % d for d in range(3, isqrt(p) + 1, 2))
)

# the cycle type of Frobenius by its number of fixed roots, when that is
# not zero; three fixed roots would force the fourth
_TYPE_OF_ROOT_COUNT = {4: (1, 1, 1, 1), 2: (1, 1, 2), 1: (1, 3)}


@dataclass
class QuarticGaloisGroup:
    label: str
    order: int
    transitive: bool
    disc_is_square: bool


def resolvent_cubic(b, c, d, e):
    """Coefficients (low to high) of the resolvent cubic
    y^3 - c y^2 + (bd - 4e) y - (b^2 e - 4ce + d^2)
    of the monic quartic x^4 + b x^3 + c x^2 + d x + e.  Its roots are
    x1 x2 + x3 x4 and the two analogous pairings."""
    return [-(b * b * e - 4 * c * e + d * d), b * d - 4 * e, -c, 1]


def _rational_roots_monic_cubic(R):
    """Exact rational roots of a squarefree cubic with Fraction coeffs."""
    roots = []
    for fac in factor_squarefree_int(primitive_integers(R)):
        if len(fac) == 2:
            roots.append(Fraction(-fac[0], fac[1]))
    return sorted(roots)


def _splits_over_sqrt_disc(delta, disc):
    """Does x^2 + ... with discriminant delta split over Q(sqrt(disc))?"""
    return (
        delta == 0
        or is_square_rational(delta)
        or is_square_rational(delta * disc)
    )


def _cubic_label(g):
    """Galois group of an irreducible cubic form, by its discriminant."""
    c0, c1, c2, c3 = g
    d3 = (
        18 * c3 * c2 * c1 * c0
        - 4 * c2**3 * c0
        + c2**2 * c1**2
        - 4 * c3 * c1**3
        - 27 * c3**2 * c0**2
    )
    return ("C3", 3) if is_square_rational(Fraction(d3)) else ("S3", 6)


def _reducible_label(forms):
    degs = sorted(len(g) - 1 for g in forms)
    if degs == [1, 1, 1, 1]:
        return "C1", 1
    if degs == [1, 1, 2]:
        return "C2", 2
    if degs == [2, 2]:
        (a0, a1, a2), (b0, b1, b2) = forms[0], forms[1]
        d1 = Fraction(a1 * a1 - 4 * a0 * a2)
        d2 = Fraction(b1 * b1 - 4 * b0 * b2)
        if is_square_rational(d1 * d2):
            # both quadratics cut out the same field
            return "C2", 2
        return "reducible-composite", 4
    if degs == [1, 3]:
        cub = next(g for g in forms if len(g) == 4)
        return "reducible-composite", _cubic_label(cub)[1]
    raise HmsError(f"unexpected factor degrees {degs}")


def _galois_group(disc, forms) -> QuarticGaloisGroup:
    """The group of a squarefree quartic from its discriminant and factors.

    Only the square class of disc is read, so the discriminant of the
    integer model serves: it is q's own times a rational square.
    """
    disc_sq = is_square_rational(disc)
    if len(forms) > 1:
        label, order = _reducible_label(forms)
        return QuarticGaloisGroup(label, order, False, disc_sq)
    g = forms[0]
    lc = Fraction(g[4])
    b = Fraction(g[3]) / lc
    c = Fraction(g[2]) / lc
    d = Fraction(g[1]) / lc
    e = Fraction(g[0]) / lc
    roots = _rational_roots_monic_cubic(resolvent_cubic(b, c, d, e))
    if len(roots) == 0:
        label = "A4" if disc_sq else "S4"
    elif len(roots) == 3:
        label = "V4"
    else:
        beta = roots[0]
        # x^2 - beta x + e has roots x1 x2, x3 x4;
        # x^2 + b x + (c - beta) has roots x1 + x2, x3 + x4
        d1 = beta * beta - 4 * e
        d2 = b * b - 4 * (c - beta)
        if _splits_over_sqrt_disc(d1, disc) and _splits_over_sqrt_disc(d2, disc):
            label = "C4"
        else:
            label = "D4"
    return QuarticGaloisGroup(label, GROUP_ORDERS[label], True, disc_sq)


def _cycle_type(ics, disc, p):
    """`frobenius_cycle_type` on the primitive integer model `ics` of a
    quartic and its discriminant `disc`, which p does not divide."""
    c0, c1, c2, c3, c4 = (c % p for c in ics)
    roots = (c4 == 0) + sum(
        ((((c4 * t + c3) * t + c2) * t + c1) * t + c0) % p == 0 for t in range(p)
    )
    if roots:
        return _TYPE_OF_ROOT_COUNT[roots]
    return (2, 2) if pow(disc, (p - 1) // 2, p) == 1 else (4,)


def frobenius_cycle_type(q: BinaryQuartic, p: int) -> tuple:
    """Sorted orbit sizes of Frobenius on the projective roots of q mod p.

    p must be an odd prime not dividing the discriminant D of the
    primitive integer model, so the four roots stay distinct mod p and
    the orbit sizes are the factor degrees of q mod p.  The number of
    roots on P^1(F_p), [1:0] counted when p divides c4, gives them
    unless it is 0.  Then q mod p is two quadratics or one quartic, and
    by Stickelberger (D/p) = (-1)^(4 - number of factors) tells which.
    """
    if p == 2:
        raise HmsError("odd primes only")
    ics, disc = integer_model(q)
    if disc % p == 0:
        raise HmsError(f"{p} divides the discriminant")
    return _cycle_type(ics, disc, p)


def _group_and_factors(q: BinaryQuartic):
    """(group, irreducible factors over Q) of a squarefree quartic.

    The Frobenius sieve decides A4 and S4 without factoring; q is then
    its own only factor, primitive with positive leading coefficient,
    as `factor_binary_quartic` returns it.  Anything else is factored
    once by Zassenhaus.
    """
    ics, disc = integer_model(q)
    if disc == 0:
        raise DegenerateLineError("quartic has a repeated projective root")
    seen = set()
    for p in SIEVE_PRIMES:
        if disc % p:
            seen.add(_cycle_type(ics, disc, p))
            # a linear factor over Q gives a root mod every p, so no (4)
            # or (2,2); two quadratic factors give no (1,3)
            if (1, 3) in seen and ((4,) in seen or (2, 2) in seen):
                disc_sq = is_square_rational(disc)
                label = "A4" if disc_sq else "S4"
                order = GROUP_ORDERS[label]
                grp = QuarticGaloisGroup(label, order, True, disc_sq)
                return grp, [tuple(c if ics[4] > 0 else -c for c in ics)]
    forms = factor_binary_quartic(q)
    return _galois_group(disc, forms), forms


def quartic_galois_group(q: BinaryQuartic) -> QuarticGaloisGroup:
    """Galois group of the splitting field of a squarefree quartic."""
    return _group_and_factors(q)[0]


@dataclass
class SolvabilityReport:
    factors: list  # (coeff tuple, label, order) per irreducible factor
    overall_label: str
    disc_is_square: bool
    solvable: bool
    splitting_degree_bound: int


def solvability_report(q: BinaryQuartic) -> SolvabilityReport:
    """Factor q over Q and bound the splitting field by solvable pieces.

    Every group that can occur for a quartic is solvable, so the roots
    are always expressible by radicals; the report records the pieces
    and a degree bound for the compositum.  q is factored at most once:
    a degree-4 factor means q is irreducible, so its label is the
    overall one.
    """
    grp, forms = _group_and_factors(q)
    rows = []
    bound = 1
    for g in forms:
        d = len(g) - 1
        if d == 4:
            label, order = grp.label, grp.order
        elif d == 3:
            label, order = _cubic_label(g)
        else:
            label, order = ("C1", 1) if d == 1 else ("C2", 2)
        rows.append((tuple(g), label, order))
        bound *= order
    return SolvabilityReport(rows, grp.label, grp.disc_is_square, True, bound)
