"""Exact oracles for the tests, written without hmslines code.

The tests hold the package to these.  The module imports no `hmslines`
(`test_hygiene.py` checks that), so a fault in a rule of the package
cannot reach the oracle that checks it:

* `sigmas` and `sigma_exponents`: the elementary symmetric functions of
  rationals, and the monomials of sigma_k, each as a sum over k-subsets;
* `ordinarity`: the ordinarity test at p from exact sigma values, by
  the valuations of u1 = D^5 / sigma_5^6 and u2 = D^3 / (sigma_5^3
  sigma_3), D = sigma_3^2 - 4 sigma_6, computed here as Fractions;
* `local_5_errors`: a certificate's 5-adic point entries against the
  same ratios in valuations, v(u1) = 5 v(D) - 6 v(sigma_5) and v(u2) =
  3 v(D) - 3 v(sigma_5) - v(sigma_3);
* `galois_errors`: a certificate's `galois` section against the square
  class of the primitive discriminant, a table of group orders, and the
  Frobenius cycle types of a transitive group, counted by brute force
  from the roots on P^1(F_p) and P^1(F_p^2);
* `local_errors`: a certificate's blocks at 3 and 5 against the
  factorization of the primitive quartic mod p by trial division
  (`factor_shape_mod_p`), and its point count against its unramified
  blocks.
* `chord_rule`: the tangent-cone chord rule on plain int lists, the
  conic's second point on the chord from a ruling W along a frame
  vector E, each made primitive, y = (E G E) W - 2 (G W . E) E.
* `common_rational_root`: the common root in P^1(Q) of two integer
  binary forms whose gcd over Q is linear, by Euclid on Fractions, so
  that a zero of sigma_5 on a line is checked in exact arithmetic.
* `evaluate`: a polynomial given as its terms at a point whose
  coordinates are in any ring, and `rref`: the reduced row echelon form
  over Q, the reference for a `Line`'s basis and for ranks.
* `compose_binary`: a binary form of integers substituted by any 2x2
  integer matrix, expanded as a product of linear forms, so that the
  tests can move a quartic between charts without the package.

The discriminant, the p-adic valuation and the square test are those of
the benchmark's checker, `bench/oracles.py`, which is stdlib-only too.
"""

import sys
from fractions import Fraction
from itertools import combinations
from math import gcd, prod
from pathlib import Path
from typing import NamedTuple

BENCH = str(Path(__file__).resolve().parent.parent / "bench")
if BENCH not in sys.path:
    sys.path.append(BENCH)
from oracles import discriminant, is_square, valuation  # noqa: E402


def sigmas(xs):
    """(sigma_1, .., sigma_n) of n rationals: sigma_k is the sum of the
    products of the k-subsets."""
    xs = [Fraction(x) for x in xs]
    n = len(xs)
    return tuple(sum(prod(c) for c in combinations(xs, k)) for k in range(1, n + 1))


def sigma_exponents(k, n=6):
    """The monomials of sigma_k in n variables, as {exponent tuple: 1}."""
    return {tuple(int(i in c) for i in range(n)): 1 for c in combinations(range(n), k)}


def chord_rule(gram, w, u1, u2, r, s):
    """The point at [r : s] of the chord rule through the ruling w, for
    the doubled Gram matrix `gram` of q2 and the frame vectors u1, u2
    that the chord runs along: W is w and E is s u2 - r u1, each divided
    by its content, and the point is (E G E) W - 2 (G W . E) E."""

    def primitive(v):
        content = gcd(*v)
        return [x // content for x in v]

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    W = primitive(w)
    E = primitive([s * y - r * x for x, y in zip(u1, u2)])
    GW, GE = ([dot(row, v) for row in gram] for v in (W, E))
    qe, be = dot(E, GE), 2 * dot(GW, E)
    return [qe * wc - be * ec for wc, ec in zip(W, E)]


class Ordinarity(NamedTuple):
    """The ratios u1, u2, their valuations (None for an exact zero,
    valuation +infinity) and the verdict."""

    u1: Fraction
    u2: Fraction
    v_u1: object
    v_u2: object
    ordinary: bool


def ordinarity(sigma, p=5):
    """The ordinarity test at p from the exact values sigma_1..sigma_6 of
    a point, or None when sigma_3 or sigma_5 vanishes and the ratios are
    undefined.  The point is ordinary when neither ratio has positive
    valuation; D = 0 makes both ratios 0, which is not ordinary."""
    s3, s5, s6 = (Fraction(sigma[k - 1]) for k in (3, 5, 6))
    if s3 == 0 or s5 == 0:
        return None
    D = s3 * s3 - 4 * s6
    u1 = D**5 / s5**6
    u2 = D**3 / (s5**3 * s3)
    v_u1, v_u2 = (None if u == 0 else valuation(u, p) for u in (u1, u2))
    ordinary = None not in (v_u1, v_u2) and v_u1 <= 0 and v_u2 <= 0
    return Ordinarity(u1, u2, v_u1, v_u2, ordinary)


def local_5_errors(data):
    """Defects of a certificate's 5-adic section: each point's ratio
    valuations, verdict and V-avoidance from its three valuations, where
    None is a valuation not determined, and so is all that depends on
    it; and the point count against the residue degrees."""
    section = data["local_5"]
    if section is None:
        return []
    points = section["points"]
    errors = []
    for n, entry in enumerate(points):
        s3, s5, d = entry["v_sigma3"], entry["v_sigma5"], entry["v_D"]
        u1 = None if None in (d, s5) else 5 * d - 6 * s5
        u2 = None if None in (d, s5, s3) else 3 * d - 3 * s5 - s3
        ordinary = None if None in (u1, u2) else u1 <= 0 and u2 <= 0
        if (entry["v_u1"], entry["v_u2"]) != (u1, u2):
            errors.append(f"local_5 point {n}: ratio valuations are not ({u1}, {u2})")
        if entry["ordinary"] != ordinary:
            errors.append(f"local_5 point {n}: ordinary is not {ordinary}")
        if entry["curve_V_avoided"] != (None if d is None else True):
            errors.append(f"local_5 point {n}: curve_V_avoided disagrees with v_D")
    if section["points_extracted"] != sum(entry["residue_degree"] for entry in points):
        errors.append("local_5: points_extracted is not the sum of the residue degrees")
    return errors


# the order of every group a certificate's galois section may name
GROUP_ORDERS = {
    "S4": 24, "A4": 12, "D4": 8, "C4": 4, "V4": 4, "S3": 6, "C3": 3, "C2": 2, "C1": 1
}

# cycle types of the elements of each transitive group on the four roots
ALLOWED_TYPES = {
    "S4": {(1, 1, 1, 1), (1, 1, 2), (2, 2), (1, 3), (4,)},
    "A4": {(1, 1, 1, 1), (2, 2), (1, 3)},
    "D4": {(1, 1, 1, 1), (1, 1, 2), (2, 2), (4,)},
    "C4": {(1, 1, 1, 1), (2, 2), (4,)},
    "V4": {(1, 1, 1, 1), (2, 2)},
}

FROBENIUS_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29)


def cycle_type(c, p):
    """Factor degrees mod p of the binary quartic with integer
    coefficients c (c[i] that of t^i u^(4-i)), squarefree mod p.

    Over F_p^2 = F_p[w]/(w^2 - r), r the least non-square, a root count
    on P^1(F_p) gives the linear factors and one on P^1(F_p^2) the
    quadratic ones; what is left is one cubic or one quartic factor.
    """
    squares = {x * x % p for x in range(p)}
    r = next(x for x in range(p) if x not in squares)

    def is_root(a, b):
        x, y = 0, 0
        for ci in reversed(c):
            x, y = (x * a + r * y * b + ci) % p, (x * b + y * a) % p
        return x == y == 0

    infinite = c[4] % p == 0
    linear = infinite + sum(is_root(a, 0) for a in range(p))
    over_fp2 = infinite + sum(is_root(a, b) for a in range(p) for b in range(p))
    quadratic = (over_fp2 - linear) // 2
    rest = 4 - linear - 2 * quadratic
    return tuple(sorted([1] * linear + [2] * quadratic + ([rest] if rest else [])))


def galois_errors(data):
    """Defects of a certificate's galois section: its square class, the
    factor degrees and orders, the degree bound, and for a transitive
    label the Frobenius cycle types at `FROBENIUS_PRIMES` that do not
    divide the primitive discriminant."""
    section = data["galois"]
    if section is None:
        return []
    prim = data["quartic"]["primitive_coeffs"]
    disc = discriminant(prim)
    errors = []
    if section["disc_is_square"] != is_square(disc):
        errors.append("galois: disc_is_square is wrong for the primitive discriminant")
    factors = section["factors"]
    if sum(f["degree"] for f in factors) != 4:
        errors.append("galois: the factor degrees do not sum to 4")
    orders = [GROUP_ORDERS.get(f["label"]) for f in factors]
    if any(f["order"] != order for f, order in zip(factors, orders)):
        errors.append("galois: a factor's order is not that of its label")
    if None in orders or section["splitting_degree_bound"] != prod(orders):
        errors.append("galois: splitting_degree_bound is not the product of the orders")
    label = section["label"]
    for p in FROBENIUS_PRIMES if label in ALLOWED_TYPES else ():
        if disc % p:
            found = cycle_type(prim, p)
            if found not in ALLOWED_TYPES[label]:
                errors.append(f"galois: Frobenius type {found} at {p} not in {label}")
    return errors


def _divide_mod_p(f, g, p):
    """(quotient, remainder) mod p of f by a monic g, low degree first."""
    f = list(f)
    n = len(g) - 1
    q = [0] * (len(f) - n)
    for k in range(len(q) - 1, -1, -1):
        q[k] = f[k + n] % p
        for i, b in enumerate(g):
            f[k + i] = (f[k + i] - q[k] * b) % p
    return q, f[:n]


def factor_shape_mod_p(c, p):
    """The sorted (degree, multiplicity) of each distinct irreducible
    factor mod p of the binary form sum c_i t^i u^(d-i), integer c not
    all divisible by p: u to the number of top coefficients divisible
    by p, then trial division of the affine part by every monic
    irreducible of degree 1 and 2; what is left over is irreducible."""
    f = [x % p for x in c]
    shape = []
    if f[-1] == 0:
        while f[-1] == 0:
            f.pop()
        shape.append((1, len(c) - len(f)))
    quadratics = [
        [b, a, 1]
        for a in range(p)
        for b in range(p)
        if all((x * x + a * x + b) % p for x in range(p))
    ]
    for g in [[r, 1] for r in range(p)] + quadratics:
        multiplicity = 0
        while len(f) >= len(g):
            q, r = _divide_mod_p(f, g, p)
            if any(r):
                break
            f, multiplicity = q, multiplicity + 1
        if multiplicity:
            shape.append((len(g) - 1, multiplicity))
    if len(f) > 1:
        shape.append((len(f) - 1, 1))
    return sorted(shape)


def local_errors(data):
    """Defects of a certificate's local sections at 3 and 5: the residue
    degrees and each block's (residue_degree, multiplicity) against
    `factor_shape_mod_p` of the primitive quartic, and points_extracted
    against the total degree of the unramified blocks."""
    prim = data["quartic"]["primitive_coeffs"]
    errors = []
    for key in ("local_3", "local_5"):
        section = data[key]
        if section is None:
            continue
        shape = factor_shape_mod_p(prim, section["p"])
        degrees = sorted(d for d, m in shape for _ in range(m))
        if section["residue_degrees"] != degrees:
            errors.append(f"{key}: residue_degrees are not {degrees}")
        blocks = section["blocks"]
        if sorted((b["residue_degree"], b["multiplicity"]) for b in blocks) != shape:
            errors.append(f"{key}: the blocks' (residue_degree, multiplicity) are not "
                          f"{shape}")
        unramified = sum(b["degree"] for b in blocks if b["verdict"] == "unramified")
        if section["points_extracted"] != unramified:
            errors.append(f"{key}: points_extracted is not {unramified}, the degree "
                          "of the unramified blocks")
    return errors


def common_rational_root(f, g):
    """The common root (t, u) in P^1(Q), a primitive int pair, of two
    integer binary forms (c_0..c_d of t^i u^(d-i)) whose gcd over Q is
    linear; None when the gcd is constant.  The gcd is u to the lesser
    order of the two at [1 : 0] times the gcd of f(t, 1) and g(t, 1),
    here by Euclid on Fractions; a gcd of degree 2 or more raises
    ValueError, since its roots need not be rational."""

    def affine(coeffs):
        out = [Fraction(c) for c in coeffs]
        while out and out[-1] == 0:
            out.pop()
        return out

    a, b = affine(f), affine(g)
    at_infinity = min(len(f) - len(a), len(g) - len(b))
    while b:
        while len(a) >= len(b):
            q, shift = a[-1] / b[-1], len(a) - len(b)
            a = affine([c - q * b[i - shift] if i >= shift else c for i, c in enumerate(a)])
        a, b = b, a
    degree = len(a) - 1 + at_infinity
    if degree > 1:
        raise ValueError(f"a common factor of degree {degree}")
    if degree == 0:
        return None
    if at_infinity:
        return (1, 0)
    root = -a[0] / a[1]
    return (root.numerator, root.denominator)


def evaluate(terms, point):
    """The polynomial with terms {exponent tuple: coefficient} at a
    point, exactly: each coefficient times its monomial by repeated
    products, so the coordinates and coefficients may be in any ring
    whose values multiply with ints (rationals, finite fields,
    polynomials)."""
    if any(len(exp) != len(point) for exp in terms):
        raise ValueError("a point needs one coordinate per variable")
    total = 0
    for exp, c in terms.items():
        for x, e in zip(point, exp):
            for _ in range(e):
                c = c * x
        total = total + c
    return total


def rref(rows):
    """(reduced rows, pivot columns) of a matrix over Q, its entries
    made Fractions: Gauss-Jordan elimination, each pivot row scaled to 1
    and cleared from every other row."""
    R = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(len(R[0]) if R else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(R)) if R[i][col] != 0), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        R[r] = [x / R[r][col] for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][col] != 0:
                f = R[i][col]
                R[i] = [a - f * b for a, b in zip(R[i], R[r])]
        pivots.append(col)
        if len(pivots) == len(R):
            break
    return R, pivots


def compose_binary(coeffs, mat):
    """The coefficients c'_0..c'_d of f(a t + b u, c t + d u), f = sum
    c_i t^i u^(d-i) and mat = ((a, b), (c, d)) any integer matrix: each
    term is the product of i copies of a t + b u and d - i of c t + d u,
    a binary form kept as its coefficients of t^j u^(k-j)."""
    (a, b), (c, d) = mat
    n = len(coeffs) - 1
    out = [0] * (n + 1)
    for i, ci in enumerate(coeffs):
        term = [ci]
        for low, high in [(b, a)] * i + [(d, c)] * (n - i):
            term = [
                (term[j] * low if j < len(term) else 0)
                + (term[j - 1] * high if j else 0)
                for j in range(len(term) + 1)
            ]
        out = [x + y for x, y in zip(out, term)]
    return out
