"""Galois-type classification of binary quartics over Q.

The transitive labels (quartic irreducible over Q) are decided by the
resolvent cubic together with the square class of the discriminant and,
for the dihedral/cyclic split, reducibility of two auxiliary quadratics
over Q(sqrt(disc)).  Reducible quartics get C1/C2 when the splitting
field is trivial/quadratic and the label "reducible-composite"
otherwise.  All of these groups are solvable, which is what the
certificate machinery ultimately relies on.

`frobenius_cycle_type` samples the factorization pattern of the form at
a good odd prime; the multiset of patterns over many primes separates
the transitive labels and is used as an independent cross-check.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateLineError, HmsError
from .hensel import (
    deg,
    factor_binary_quartic,
    factor_monic_mod_p,
    factor_squarefree_int,
    pmod,
    primitive_int_coeffs,
    pscale,
)
from .mpoly import coeff_is_zero
from .quartics import BinaryQuartic, stored_discriminant
from .scalars import is_square_rational, primitive_integers

GROUP_ORDERS = {"S4": 24, "A4": 12, "D4": 8, "C4": 4, "V4": 4, "C2": 2, "C1": 1}


@dataclass
class QuarticGaloisGroup:
    label: str
    order: int
    transitive: bool
    disc_is_square: bool
    factor_degrees: tuple


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


def _squarefree_factors(q: BinaryQuartic):
    """(discriminant, irreducible factors over Q) of a squarefree quartic.

    The discriminant is the one already stored on q when its
    certificate evaluated it first.
    """
    disc = stored_discriminant(q)
    if coeff_is_zero(disc):
        raise DegenerateLineError("quartic has a repeated projective root")
    return Fraction(disc), factor_binary_quartic(q)


def _galois_group(disc, forms) -> QuarticGaloisGroup:
    """The group of a squarefree quartic from its discriminant and factors."""
    disc_sq = is_square_rational(disc)
    degs = tuple(sorted(len(g) - 1 for g in forms))
    if degs != (4,):
        label, order = _reducible_label(forms)
        return QuarticGaloisGroup(label, order, False, disc_sq, degs)
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
    return QuarticGaloisGroup(label, GROUP_ORDERS[label], True, disc_sq, degs)


def quartic_galois_group(q: BinaryQuartic) -> QuarticGaloisGroup:
    """Galois group of the splitting field of a squarefree quartic."""
    return _galois_group(*_squarefree_factors(q))


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
    and a degree bound for the compositum.  q is factored once: a
    degree-4 factor means q is irreducible, so its label is the overall
    one.
    """
    disc, forms = _squarefree_factors(q)
    grp = _galois_group(disc, forms)
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


def frobenius_cycle_type(q: BinaryQuartic, p: int) -> tuple:
    """Sorted orbit sizes of Frobenius on the projective roots of q mod p.

    p must be an odd prime not dividing the discriminant of the
    primitive integer model, so the four roots stay distinct mod p and
    the factor degrees of the reduced binary form are the orbit sizes.
    """
    if p == 2:
        raise HmsError("odd primes only")
    ics = primitive_int_coeffs(q)
    disc = BinaryQuartic([Fraction(c) for c in ics]).discriminant()
    if disc.denominator != 1:
        raise HmsError("integral model has non-integral discriminant")
    if int(disc) % p == 0:
        raise HmsError(f"{p} divides the discriminant")
    affine = pmod(ics, p)
    parts = factor_monic_mod_p(pscale(affine, pow(affine[-1], -1, p), p), p)
    pattern = [1] * (4 - deg(affine)) + [deg(g) for g, _ in parts]
    return tuple(sorted(pattern))
