"""Factorization mod p, Hensel lifting, factorization over Q for
degree <= 4, and local unramifiedness analysis of binary quartics.

Polynomials are the coefficient lists of the kernel mod p^k in
`padics`, low degree first, trailing zeros stripped, and all their
arithmetic mod p or p^k is that kernel's.

Factorization follows von zur Gathen & Gerhard, Modern Computer
Algebra: mod p by a root scan, then one distinct-degree gcd and
equal-degree splitting for a rootless quartic (ch. 14); over Q by
Zassenhaus, Hensel lifting past the Mignotte bound and recombining
subsets of at most half of the unused lifted factors (ch. 15).  Every
lift goes through `hensel_pair_lift`, quadratic Hensel lifting of a
coprime pair with its Bezout coefficients.

The local analysis (`hensel_factor_quartic`) factors each quartic once
mod p, in one chart.  It is sound but deliberately incomplete: it
certifies "unramified" only via (a) simple blocks (a squarefree part of
the reduction mod p) or (b) (linear)^2 blocks whose discriminant has
even valuation (odd p); everything else is reported "inconclusive".
The verdict needs no lift unless the reduction has two (linear)^2
blocks, and then one lifted discriminant gives both: their valuations
add up to that of the quartic, since disc(g*h) = disc g * disc h *
Res(g, h)^2 with Res(g, h) a p-unit for g, h coprime mod p (Cohen, A
Course in Computational Algebraic Number Theory, GTM 138, ch. 3).  The
blocks are lifted mod p^prec, all in one call, the first time a lifted
block is read.  `block_roots` is
the one place that reads the p-adic roots (t, u) of a block off its
lifted coefficients; `search` turns them into points.
"""

from dataclasses import dataclass, field
from itertools import combinations
from math import comb, isqrt
from typing import Callable

from .errors import HmsError, PrecisionError
from .padics import (
    UnramifiedRing, deg, padd, pderiv, pdivmod, pext_euclid, peval, pgcd, pmod, pmul,
    ppowmod, pscale, psub, trim,
)
from .quartics import BinaryQuartic, integer_model
from .scalars import primitive_integers, split_p_power

# -- factorization mod p for degree <= 4 --------------------------------


def factor_monic_mod_p(f, p):
    """Irreducible factorization of a monic poly of degree <= 4 mod p.

    Returns [(monic factor, multiplicity)] sorted by (degree, coeffs).
    Roots are found by scanning F_p (p is small here) and divided out by
    synthetic division, which leaves a rootless cofactor w: irreducible
    of degree 2 or 3, or a quartic.  A quartic is decided by one
    distinct-degree gcd (von zur Gathen & Gerhard, Modern Computer
    Algebra, ch. 14): g = gcd(w, x^(p^2) - x) is the product of its
    distinct quadratic factors, so w is irreducible (deg g = 0), g^2
    (deg g = 2), or two distinct quadratics (deg g = 4), split by
    equal-degree splitting.
    """
    f = pmod(f, p)
    if deg(f) > 4:
        raise HmsError("factor_monic_mod_p handles degree <= 4 only")
    if not f or f[-1] != 1:
        raise HmsError("input must be monic")
    factors = {}
    work = list(f)
    for r in range(p):
        while deg(work) >= 1 and peval(work, r, p) == 0:
            # synthetic division by x - r, from the top coefficient down
            quotient = [work[-1]]
            for c in work[-2:0:-1]:
                quotient.append((c + r * quotient[-1]) % p)
            work = quotient[::-1]
            key = ((-r) % p, 1)
            factors[key] = factors.get(key, 0) + 1
    parts = [work] if deg(work) > 0 else []
    if deg(work) == 4:
        g = pgcd(work, psub(ppowmod([0, 1], p * p, work, p), [0, 1], p), p)
        if deg(g) == 2:
            parts = [g, g]
        elif deg(g) == 4:
            h = _split_two_quadratics(work, p)
            parts = [h, pdivmod(work, h, p)[0]]
    for part in parts:
        key = tuple(part)
        factors[key] = factors.get(key, 0) + 1
    return sorted(factors.items(), key=lambda kv: (len(kv[0]), kv[0]))


def _split_two_quadratics(f, p):
    """One factor of f mod p, a product of two distinct irreducible
    quadratics, by deterministic equal-degree splitting: the gcd of f
    and (x + a)^((p^2 - 1)/2) - 1 is defined over F_p, so it has degree
    0, 2 or 4, and some a in F_p gives 2."""
    half = (p * p - 1) // 2
    for a in range(p):
        g = pgcd(psub(ppowmod([a, 1], half, f, p), [1], p), f, p)
        if deg(g) == 2:
            return g
    raise HmsError("equal-degree splitting failed")


# -- Hensel lifting ------------------------------------------------------


def hensel_pair_lift(f, g0, h0, p, K):
    """Lift f = g0*h0 (mod p), h0 monic and coprime to g0 mod p, to
    f = g*h (mod p^K) with g = g0 and h = h0 (mod p), h monic.

    Quadratic lifting (von zur Gathen & Gerhard, Modern Computer
    Algebra, Alg. 15.10): the Bezout pair s*g + t*h = 1 is lifted along
    with g and h, so the precision doubles each step.  The lift is
    unique; g takes the leading coefficient of f, so g is monic when f
    is, and of higher degree than g0 when that coefficient is divisible
    by p.
    """
    s, t = pext_euclid(g0, h0, p)
    g, h = pmod(g0, p), pmod(h0, p)
    k = 1
    while k < K:
        k = min(2 * k, K)
        m = p**k
        e = psub(f, pmul(g, h, m), m)
        q, r = pdivmod(pmul(s, e, m), h, m)
        g = padd(g, padd(pmul(t, e, m), pmul(q, g, m), m), m)
        h = padd(h, r, m)
        if k == K:
            break  # the Bezout pair only serves a further step
        b = psub(padd(pmul(s, g, m), pmul(t, h, m), m), [1], m)
        c, d = pdivmod(pmul(s, b, m), h, m)
        s = psub(s, d, m)
        t = psub(t, padd(pmul(t, b, m), pmul(c, g, m), m), m)
    return g, h


def hensel_lift_factors(f, parts, p, K):
    """Lift pairwise-coprime monic parts with f = prod(parts) mod p
    to a factorization mod p^K.  f monic with integer coefficients."""
    if K < 1:
        raise HmsError("precision must be positive")
    if len(parts) == 1:
        m = p**K
        return [[c % m for c in f]]
    mid = len(parts) // 2
    g0 = [1]
    for q in parts[:mid]:
        g0 = pmul(g0, q, p)
    h0 = [1]
    for q in parts[mid:]:
        h0 = pmul(h0, q, p)
    g, h = hensel_pair_lift(f, g0, h0, p, K)
    return hensel_lift_factors(g, parts[:mid], p, K) + hensel_lift_factors(
        h, parts[mid:], p, K
    )


# -- factorization over Q for degree <= 4 --------------------------------


def _int_divmod_exact(f, g):
    """Exact quotient of integer polys by a monic g; None if inexact."""
    f = list(f)
    q = []
    while len(f) >= len(g):
        c = f[-1]
        q.append(c)
        k = len(f) - len(g)
        for i, b in enumerate(g):
            f[i + k] -= c * b
        f.pop()
    return None if any(f) else q[::-1]


def _primitive(f):
    f = trim(f)
    if not f:
        return f
    f = primitive_integers(f)
    return f if f[-1] > 0 else [-a for a in f]


def factor_squarefree_int(f):
    """Irreducible factors (primitive, positive lc) of a squarefree
    integer polynomial of degree <= 4, by Zassenhaus (Modern Computer
    Algebra, ch. 15): factor mod a good prime, Hensel lift past the
    Mignotte bound, recombine subsets of at most half of the unused
    lifted factors.  An input that is not squarefree raises HmsError."""
    f = _primitive(f)
    d = deg(f)
    if d <= 0:
        return []
    if d == 1:
        return [f]
    if d > 4:
        raise HmsError("degree > 4 not supported")
    lc = f[-1]
    # monicize: F(y) = lc^(d-1) * f(y/lc), whose leading coefficient is 1
    F = [c * lc ** (d - 1 - i) for i, c in enumerate(f[:-1])] + [1]
    # a prime where F is not squarefree divides disc F, and a nonzero
    # disc F is at most d^d (sum c^2)^(d-1) (Mahler, Michigan Math. J.
    # 11, 1964): once the rejected primes multiply past that, disc F = 0
    disc_bound = d**d * sum(c * c for c in F) ** (d - 1)
    rejected = 1
    p = 3
    while True:
        fb = pmod(F, p)
        if deg(fb) == d and deg(pgcd(fb, pderiv(fb), p)) == 0:
            break
        rejected *= p
        if rejected > disc_bound:
            raise HmsError("input is not squarefree: its discriminant vanishes")
        p = _next_prime(p)
    parts = factor_monic_mod_p(pmod(F, p), p)
    assert all(m == 1 for _, m in parts)
    part_list = [list(g) for g, _ in parts]
    if len(part_list) == 1:
        return [f]
    norm2 = isqrt(sum(c * c for c in F)) + 1
    bound = 2**d * (norm2 + 1)
    K = 1
    while p**K < 2 * bound + 1:
        K += 1
    lifted = hensel_lift_factors(F, part_list, p, K)
    m = p**K
    found = []
    remaining = list(F)
    active = list(range(len(lifted)))
    size = 1
    # a factor found takes its subset out; the rest is irreducible once
    # no subset of at most half of the unused lifts divides it
    while 2 * size <= len(active):
        for combo in combinations(active, size):
            prod = [1]
            for idx in combo:
                prod = pmul(prod, lifted[idx], m)
            cand = [_symmetric(c, m) for c in prod]
            q = _int_divmod_exact(remaining, cand)
            if q is not None:
                found.append(cand)
                remaining = q
                active = [i for i in active if i not in combo]
                break
        else:
            size += 1
    found.append(remaining)
    # undo the monicizing substitution: g(y) -> primitive part of g(lc*x)
    out = []
    for g in found:
        gg = [c * lc**i for i, c in enumerate(g)]
        out.append(_primitive(gg))
    out.sort(key=lambda h: (len(h), h))
    return out


def _symmetric(c, m):
    c %= m
    return c - m if c > m // 2 else c


def _next_prime(p):
    p += 2
    while any(p % k == 0 for k in range(3, isqrt(p) + 1, 2)):
        p += 2
    return p


def factor_binary_quartic(q: BinaryQuartic):
    """Factor a squarefree binary quartic over Q.

    Returns the irreducible factors as coeff tuples (c_0..c_d), each
    encoding the primitive binary form sum c_i t^i u^(d-i); their
    product is q up to a rational unit.
    """
    affine = trim(integer_model(q)[0])
    factors = [(1, 0)] * (5 - len(affine))  # the factor u, once per root at [1:0]
    if deg(affine) >= 1:
        factors += [tuple(g) for g in factor_squarefree_int(affine)]
    return factors


# -- local analysis of a quartic over Q_p --------------------------------


@dataclass
class BlockReport:
    """One coprime block of the factorization over Z_p.

    The degree, residue degree, multiplicity, verdict and, for a
    (linear)^2 block, disc_valuation (the valuation of its discriminant)
    come from the residue factorization and the exact discriminant,
    except that two (linear)^2 blocks read their discriminants off the
    lift.  coeffs_mod, the block Hensel-lifted mod p^prec as a binary
    form of its degree in the original chart, is built the first time
    it is read, by the one lift that the blocks of a report share.
    `block_roots` reads the roots off these two.
    """

    degree: int
    residue_degree: int
    multiplicity: int
    verdict: str  # "unramified" | "ramified" | "inconclusive"
    disc_valuation: int | None
    _lifted: Callable = field(repr=False)  # () -> every block of the report
    _index: int = field(repr=False)

    @property
    def coeffs_mod(self) -> tuple:
        return self._lifted()[self._index]


@dataclass
class HenselReport:
    p: int
    prec: int
    squarefree_mod_p: bool
    residue_degrees: tuple
    verdict: str
    blocks: list


def compose_binary(coeffs, mat, modulus=None):
    """Compose the binary form sum c_i t^i u^(d-i) with (t,u) -> mat*(t,u).

    With mat = ((a, b), (c, d)) the result is the coefficient list of
    f(a t + b u, c t + d u), reduced mod `modulus` when one is given.
    """
    a, b, c, d = mat[0][0], mat[0][1], mat[1][0], mat[1][1]
    n = len(coeffs) - 1
    # new_t = a t + b u ; new_u = c t + d u
    out = [0] * (n + 1)
    # expand (a t + b u)^i (c t + d u)^(n-i)
    for i, ci in enumerate(coeffs):
        if ci == 0:
            continue
        # (a t + b u)^i
        poly1 = [comb(i, k) * a**k * b ** (i - k) for k in range(i + 1)]
        poly2 = [comb(n - i, k) * c**k * d ** (n - i - k) for k in range(n - i + 1)]
        conv = [0] * (n + 1)
        for k1, v1 in enumerate(poly1):
            for k2, v2 in enumerate(poly2):
                conv[k1 + k2] += v1 * v2
        for k in range(n + 1):
            out[k] += ci * conv[k]
    if modulus:
        out = [v % modulus for v in out]
    return out


def unit_chart(ics, p):
    """An SL2(Z) chart in which the quartic's leading coefficient is a unit.

    ics are integer coefficients c0..c4 of sum c_i t^i u^(4-i).  The
    chart is the identity when c4 is a p-unit, else ((m, -1), (1, 0)),
    (t, u) -> (m t - u, t), for the first m with q(m, 1) != 0 mod p; the
    composed form (`compose_binary`) has leading coefficient q(m, 1).
    No chart exists when the reduction vanishes on all of P^1(F_p),
    which takes p = 3 and four simple roots; the identity is returned.
    """
    if ics[4] % p != 0:
        return ((1, 0), (0, 1))
    for m in range(p):
        if peval(ics, m, p) != 0:
            return ((m, -1), (1, 0))
    return ((1, 0), (0, 1))


def _residue_order(blk, p):
    """Sort key of a block by its residue factor of q(t, 1): monic
    affine factors by (degree, coefficients), then the root at [1:0]."""
    g = pmod(blk.coeffs_mod, p)
    if deg(g) < blk.degree:
        return (1,)
    return (0, len(g), tuple(pscale(g, pow(g[-1], -1, p), p)))


def hensel_factor_quartic(q: BinaryQuartic, p: int, prec: int) -> HenselReport:
    """Factor q over Z_p into coprime blocks and certify unramifiedness.

    q is moved to its `unit_chart` and its monic reduction is factored
    once; a block is a residue factor to its multiplicity.  The
    verdicts (odd p) are sound but incomplete:
      * a simple block -> unramified;
      * a (linear)^2 block -> the parity of its discriminant valuation
        (even -> unramified, odd -> the splitting field is ramified);
      * any other repeated block -> "inconclusive".
    No lift decides them unless the reduction has two (linear)^2
    blocks.  For monic f = g*h over Z_p with g and h coprime mod p,
    disc f = disc g * disc h * Res(g, h)^2 and Res(g, h) is a p-unit
    (Cohen, A Course in Computational Algebraic Number Theory, GTM 138,
    ch. 3).  A simple block has a unit discriminant, and the SL2(Z)
    chart and the monic scaling change the discriminant D of q by a
    unit, so a lone (linear)^2 block's discriminant valuation is
    v_p(D), exact from `integer_model`.  Two read their lifts; one
    that is O(p^prec) has v_p(D) - v, v the other's.  PrecisionError is
    raised for a (linear)^2 block when D = 0 or both are O(p^prec).

    Every block is Hensel lifted mod p^prec in one `hensel_lift_factors`
    call the first time any `coeffs_mod` of the report is read: by the
    two-(linear)^2 rule, by `block_roots`, or here, by the block order of
    a squarefree reduction.
    """
    if p % 2 == 0:
        raise HmsError("odd p required")
    if prec < 1:
        raise HmsError("precision must be positive")
    ics, disc = integer_model(q)
    m = p**prec
    chart = unit_chart(ics, p)
    identity = chart == ((1, 0), (0, 1))
    f = list(ics) if identity else compose_binary(ics, chart)
    top = deg(pmod(f, p))
    lc_inv = pow(f[top], -1, m)
    f = [(c * lc_inv) % m for c in f]
    parts = factor_monic_mod_p(pmod(f, p), p)
    # (residue degree, multiplicity) of each block; with no unit chart,
    # [1:0] is a simple root and its block comes last
    block_meta = [(deg(list(g)), mult) for g, mult in parts]
    if top < 4:
        block_meta.append((1, 1))
    squarefree = all(mult == 1 for _, mult in block_meta)
    residue_degrees = tuple(
        sorted(rdeg for rdeg, mult in block_meta for _ in range(mult))
    )

    lifted_blocks = []

    def lifted():
        """Every block lifted mod p^prec, as a binary form in the original
        chart, in the order of block_meta: built on the first call."""
        if lifted_blocks:
            return lifted_blocks
        rest, at_infinity = f, []
        if top < 4:
            # the linear factor at [1:0] (a unit mod p) is split off the
            # monic rest first
            g, rest = hensel_pair_lift(f, [1], pmod(f, p), p, prec)
            at_infinity = [(g + [0])[:2]]
        powers = []
        for g, mult in parts:
            powers.append([1])
            for _ in range(mult):
                powers[-1] = pmul(powers[-1], list(g), p)
        blocks = hensel_lift_factors(rest, powers, p, prec) + at_infinity
        if not identity:
            (a, b), (c, d) = chart
            inv_chart = ((d, -b), (-c, a))  # det = 1
            # a lifted block is already reduced mod p^prec
            blocks = [compose_binary(B, inv_chart, m) for B in blocks]
        lifted_blocks.extend(map(tuple, blocks))
        return lifted_blocks

    doubles = [i for i, meta in enumerate(block_meta) if meta == (1, 2)]
    valuations = {}  # index of a (linear)^2 block -> v_p of its discriminant
    if len(doubles) == 2:
        for index in doubles:
            # the discriminant of a binary quadratic is SL2-invariant
            c0, c1, c2 = lifted()[index]
            block_disc = (c1 * c1 - 4 * c0 * c2) % m
            if block_disc:
                valuations[index] = split_p_power(block_disc, p)[0]
    unread = [index for index in doubles if index not in valuations]
    if disc and len(unread) == 1:
        # the (linear)^2 valuations add up to v_p(D)
        valuations[unread[0]] = split_p_power(disc, p)[0] - sum(valuations.values())
    blocks = []
    for index, (rdeg, mult) in enumerate(block_meta):
        verdict, v = "unramified", None
        if (rdeg, mult) == (1, 2):
            if index not in valuations:
                raise PrecisionError(
                    f"block discriminant is O({p}^{prec}); re-run at higher "
                    "precision",
                    needed=prec + 1,
                )
            v = valuations[index]
            verdict = "unramified" if v % 2 == 0 else "ramified"
        elif mult > 1:
            verdict = "inconclusive"
        blocks.append(BlockReport(rdeg * mult, rdeg, mult, verdict, v, lifted, index))
    if squarefree:
        # certificates list the blocks of a squarefree reduction in this
        # order, and of a repeated one in unit-chart order; the golden
        # certificates freeze both
        blocks.sort(key=lambda blk: _residue_order(blk, p))
    verdicts = {blk.verdict for blk in blocks}
    verdict = next(
        v for v in ("ramified", "inconclusive", "unramified") if v in verdicts
    )
    return HenselReport(p, prec, squarefree, residue_degrees, verdict, blocks)


def block_roots(report: HenselReport, blk: BlockReport):
    """The p-adic roots (t, u) of one block of `report`, in the original chart.

    Both coordinates of a root lie in one `UnramifiedRing`; they are
    read off `blk.coeffs_mod`, sum c_i t^i u^(d-i) mod p^prec:
      * a simple linear block c1 t + c0 u has the root [-c0 : c1],
        scaled so that u = 1, or t = 1 when c1 is not a unit;
      * a simple block of residue degree d >= 2 has the root (x, 1),
        x the generator of the degree-d ring of the block made monic
        (an irreducible residue factor of degree >= 2 has no root at
        [1:0], so the top coefficient is a unit);
      * an unramified (linear)^2 block has the two roots
        z = (-a1 + s p^(v/2)) / (2 a2), with (a0, a1, a2) its
        coefficients in the order that makes a2 a unit, z = t/u (or
        u/t when c2 is not a unit) and s^2 = w, the unit part of the
        discriminant of valuation v = `disc_valuation`, mod p^(prec-v):
        s = +-sqrt(w), or the generator of the degree-2 ring
        (Z/p^(prec-v))[s]/(s^2 - w) when w is not a square; with
        v >= prec no digit of s is known, and PrecisionError asks for
        precision v + 1.
    A ramified or inconclusive block has no roots here, and reads no lift.
    """
    p, K = report.p, report.prec
    m = p**K
    if blk.verdict != "unramified":
        return []
    v = blk.disc_valuation
    if v is not None and v >= K:
        raise PrecisionError(
            f"a double root's discriminant has valuation {v}, so its roots "
            f"have no digit at precision {K}",
            needed=v + 1,
        )
    coeffs = blk.coeffs_mod
    if blk.multiplicity == 1 and blk.degree == 1:
        ring = UnramifiedRing(p, (0, 1), K)
        t, u = -coeffs[0] % m, coeffs[1]
        if u % p:
            return [(ring.elt([t * pow(u, -1, m)]), ring.one())]
        return [(ring.one(), ring.elt([u * pow(t, -1, m)]))]
    if blk.multiplicity == 1:
        inv = pow(coeffs[-1], -1, m)
        ring = UnramifiedRing(p, [c * inv % m for c in coeffs], K)
        return [(ring.gen(), ring.one())]
    # an unramified repeated block is a (linear)^2: one end of the
    # square of a residue linear form is a unit
    t_chart = coeffs[2] % p != 0
    a0, a1, a2 = coeffs if t_chart else coeffs[::-1]
    keff = K - v
    w = (a1 * a1 - 4 * a0 * a2) % m // p**v
    r0 = next((r for r in range(p) if (r * r - w) % p == 0), None)
    if r0 is not None:
        ring = UnramifiedRing(p, (0, 1), keff)
        factor, _ = hensel_pair_lift([-w, 0, 1], [-r0, 1], [r0, 1], p, keff)
        s = ring.elt([-factor[0]])
        square_roots = [s, -s]
    else:
        ring = UnramifiedRing(p, [-w, 0, 1], keff)
        square_roots = [ring.gen()]
    inv_lead = ring.elt([pow(2 * a2, -1, ring.mod)])
    roots = []
    for s in square_roots:
        z = (s * p ** (v // 2) - a1) * inv_lead
        roots.append((z, ring.one()) if t_chart else (ring.one(), z))
    return roots
