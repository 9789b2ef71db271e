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

A quartic with a linear factor over Q has a root mod every such p, so
the sieve gives up once its first `SIEVE_PATIENCE` primes have all had
a root.  Whatever it leaves undecided (reducible quartics, D4, C4, V4,
and the S4 or A4 quartic that gave up or that the prime list misses) is
factored over Q by Zassenhaus.  The transitive labels are then decided
by the resolvent cubic together with the square class of the
discriminant and, for the dihedral/cyclic split, reducibility of two
auxiliary quadratics over Q(sqrt(disc)) (Kappe & Warren, "An elementary
test for the Galois group of a quartic polynomial", Amer. Math. Monthly
96, 1989).  Reducible quartics get C1/C2 when the splitting field is
trivial/quadratic and the label "reducible-composite" otherwise.  All of
these groups are solvable, which is what the certificate machinery
ultimately relies on.

`solvability_report` returns the certificate's `galois` section itself,
as the dict that is serialized.
"""

from fractions import Fraction
from math import isqrt, prod

from .errors import DegenerateLineError, HmsError
from .hensel import factor_binary_quartic, factor_squarefree_int
from .quartics import BinaryQuartic
from .scalars import is_square_rational, primitive_integers

GROUP_ORDERS = {
    "S4": 24, "A4": 12, "D4": 8, "C4": 4, "V4": 4, "S3": 6, "C3": 3, "C2": 2, "C1": 1
}

# the odd primes below 100, tried in order until the cycle types decide
SIEVE_PRIMES = tuple(
    p for p in range(3, 100, 2) if all(p % d for d in range(3, isqrt(p) + 1, 2))
)

# the sieve gives up when this many primes in a row have had a root
SIEVE_PATIENCE = 16

# the cycle type of Frobenius by its number of fixed roots, when that is
# not zero; three fixed roots would force the fourth
_TYPE_OF_ROOT_COUNT = {4: (1, 1, 1, 1), 2: (1, 1, 2), 1: (1, 3)}


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
    return "C3" if is_square_rational(Fraction(d3)) else "S3"


def _reducible_label(forms):
    degs = sorted(len(g) - 1 for g in forms)
    if degs == [1, 1, 1, 1]:
        return "C1"
    if degs == [1, 1, 2]:
        return "C2"
    if degs == [2, 2]:
        (a0, a1, a2), (b0, b1, b2) = forms
        d1 = Fraction(a1 * a1 - 4 * a0 * a2)
        d2 = Fraction(b1 * b1 - 4 * b0 * b2)
        # a square product: both quadratics cut out the same field
        return "C2" if is_square_rational(d1 * d2) else "reducible-composite"
    return "reducible-composite"  # [1, 3]


def _galois_group(disc, forms) -> str:
    """The group label of a squarefree quartic from its discriminant and
    factors.

    Only the square class of disc is read, so `BinaryQuartic.disc`
    serves: it is q's own times content^6, a square.
    """
    if len(forms) > 1:
        return _reducible_label(forms)
    g = forms[0]
    lc = Fraction(g[4])
    b = Fraction(g[3]) / lc
    c = Fraction(g[2]) / lc
    d = Fraction(g[1]) / lc
    e = Fraction(g[0]) / lc
    roots = _rational_roots_monic_cubic(resolvent_cubic(b, c, d, e))
    if len(roots) == 0:
        return "A4" if is_square_rational(disc) else "S4"
    if len(roots) == 3:
        return "V4"
    beta = roots[0]
    # x^2 - beta x + e has roots x1 x2, x3 x4;
    # x^2 + b x + (c - beta) has roots x1 + x2, x3 + x4
    d1 = beta * beta - 4 * e
    d2 = b * b - 4 * (c - beta)
    if _splits_over_sqrt_disc(d1, disc) and _splits_over_sqrt_disc(d2, disc):
        return "C4"
    return "D4"


def frobenius_cycle_type(q: BinaryQuartic, p: int) -> tuple:
    """Sorted orbit sizes of Frobenius on the projective roots of q mod p.

    p must be an odd prime not dividing the discriminant D = `q.disc` of
    the primitive coefficients, so the four roots stay distinct mod p and
    the orbit sizes are the factor degrees of q mod p.  The number of
    roots on P^1(F_p), [1:0] counted when p divides c4, gives them
    unless it is 0.  Then q mod p is two quadratics or one quartic, and
    by Stickelberger (D/p) = (-1)^(4 - number of factors) tells which.
    """
    if p == 2:
        raise HmsError("odd primes only")
    if q.disc % p == 0:
        raise HmsError(f"{p} divides the discriminant")
    c0, c1, c2, c3, c4 = (c % p for c in q.coeffs)
    roots = (c4 == 0) + sum(
        ((((c4 * t + c3) * t + c2) * t + c1) * t + c0) % p == 0 for t in range(p)
    )
    if roots:
        return _TYPE_OF_ROOT_COUNT[roots]
    return (2, 2) if pow(q.disc, (p - 1) // 2, p) == 1 else (4,)


def _sieve_decides(q: BinaryQuartic) -> bool:
    """Do the Frobenius cycle types at `SIEVE_PRIMES` prove A4 or S4?"""
    seen = set()
    for sieved, p in enumerate((p for p in SIEVE_PRIMES if q.disc % p), 1):
        seen.add(frobenius_cycle_type(q, p))
        # a linear factor over Q gives a root mod every p, so no (4) or
        # (2,2), and the sieve gives up; two quadratic factors give no (1,3)
        root_free = (4,) in seen or (2, 2) in seen
        if (1, 3) in seen and root_free:
            return True
        if sieved == SIEVE_PATIENCE and not root_free:
            return False
    return False


def _factor_label(g, label):
    """The group of one irreducible factor g of a quartic of group `label`."""
    d = len(g) - 1
    if d == 3:
        return _cubic_label(g)
    return {1: "C1", 2: "C2", 4: label}[d]


def solvability_report(q: BinaryQuartic) -> dict:
    """The certificate's `galois` section of a squarefree quartic.

    Every group that can occur for a quartic is solvable, so the roots
    are always expressible by radicals; the section records the group
    label, the square class of the discriminant, each irreducible
    factor's degree and group, and the product of their orders as a
    degree bound for the compositum.  The Frobenius sieve decides A4
    and S4 without factoring, q then being its one factor; anything
    else is factored once by Zassenhaus.
    """
    disc = q.disc
    if disc == 0:
        raise DegenerateLineError("quartic has a repeated projective root")
    disc_is_square = is_square_rational(disc)
    if _sieve_decides(q):
        label = "A4" if disc_is_square else "S4"
        rows = [(4, label)]
    else:
        forms = factor_binary_quartic(q)
        label = _galois_group(disc, forms)
        rows = [(len(g) - 1, _factor_label(g, label)) for g in forms]
    factors = [
        {"degree": d, "label": name, "order": GROUP_ORDERS[name]} for d, name in rows
    ]
    return {
        "label": label,
        "solvable": True,
        "disc_is_square": disc_is_square,
        "splitting_degree_bound": prod(row["order"] for row in factors),
        "factors": factors,
    }
