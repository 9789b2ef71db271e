"""Factorization mod p, Hensel lifting, factorization over Q for
degree <= 4, and local unramifiedness analysis of binary quartics.

Polynomials are the coefficient lists of the kernel mod p^k in
`padics`, low degree first, trailing zeros stripped, and all their
arithmetic mod p or p^k is that kernel's.

Factorization follows von zur Gathen & Gerhard, Modern Computer
Algebra: mod p by a root scan, then one distinct-degree gcd and
equal-degree splitting for a rootless quartic (ch. 14); over Q by
Zassenhaus, Hensel lifting past the Mignotte bound and recombining
subsets of at most half of the unused lifted factors (ch. 15).  One
routine lifts every factorization (`hensel_lift_factors`): a simple
root mod p, a linear factor of multiplicity 1, is lifted by Newton
iteration with precision doubling (`newton_root`, ch. 9) and divided
out.  Each part left has degree >= 2, but for a block at [1:0], and
the degrees add up to at most 4, so at most two are left, and one
`hensel_pair_lift`, quadratic Hensel lifting of a coprime pair with its
Bezout coefficients, splits them.  A factorization mod p^K into factors
coprime mod p that lift given residues is unique, so Newton iteration
and the pair lift give the same factors.

The local analysis (`hensel_factor_quartic`) factors each quartic once
mod p, in its own coordinates: the root at [1:0], of multiplicity 4
less the degree of the reduction, is one block, and the affine
reduction, made monic by its unit top coefficient, gives the others.
It is sound but deliberately incomplete: it certifies "unramified"
only via (a) simple blocks (a squarefree part of the reduction mod p)
or (b) (linear)^2 blocks whose discriminant has even valuation (odd
p); everything else is reported "inconclusive".  The verdict needs
no lift unless the reduction has two (linear)^2 blocks, and then one
lifted discriminant gives both: their valuations add up to that of the
quartic, since disc(g*h) = disc g * disc h * Res(g, h)^2 with
Res(g, h) a p-unit for g, h coprime mod p (Cohen, A Course in
Computational Algebraic Number Theory, GTM 138, ch. 3).

An "unramified" report has an even v_p(D), the block discriminant
valuations adding up to it, so `search` reads an odd v_p(D) as "not
unramified" before it asks for a report.

Everything a report takes from its quartic mod p (the degree of the
reduction, the factorization of its monic affine part, and each block's
residue degree, multiplicity and residue factor) is computed once per
prime and residue and kept in a plain dict (`_RESIDUES`, at most
p^5 - 1 keys per prime); a quartic itself adds only v_p(D) and the
(linear)^2 valuations.  The blocks come in one order: the affine ones
in the order of `factor_monic_mod_p`, by (degree, coefficients), then
the block at [1:0].

Each quartic and prime has one `HenselReport`, and its blocks are
lifted only when a lift is read, at the precision asked for:
`HenselReport.lift(K)` lifts them all once per K, by one
`hensel_lift_factors` call on the monic form mod p^prec that the first
lift forms, with the block at [1:0] as its first part.
`block_roots` is the one place that reads the p-adic roots of a block
off its lift, each one coordinate z and an orientation, [z : 1] or
[1 : z]; `search` turns them into points.  `require_root_digits` is the
one check that a block's roots have a digit at the precision read.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import isqrt

from .errors import HmsError, PrecisionError
from .padics import (
    UnramifiedRing, deg, padd, pderiv, pdivmod, pext_euclid, peval, pgcd, pmod, pmul,
    ppowmod, pscale, psub, trim,
)
from .quartics import BinaryQuartic
from .scalars import primitive_integers, split_p_power

# -- factorization mod p for degree <= 4 --------------------------------


def factor_monic_mod_p(f, p):
    """Irreducible factorization of a monic poly of degree <= 4 mod p.

    Returns [(monic factor, multiplicity)] sorted by (degree, coeffs).
    A Hensel report factors each residue once per prime and keeps it
    with the residue (`_residue_of`).

    Roots are found by scanning F_p (p is small here) and divided out by
    `pdivmod`, which leaves a rootless cofactor w: irreducible
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
    work = f
    for r in range(p):
        key = ((-r) % p, 1)
        while deg(work) >= 1 and peval(work, r, p) == 0:
            work = pdivmod(work, list(key), p)[0]
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


# -- Hensel lifting ------------------------------------------------------


def hensel_pair_lift(f, g0, h0, p, K):
    """Lift f = g0*h0 (mod p), h0 monic and coprime to g0 mod p, to
    f = g*h (mod p^K) with g = g0 and h = h0 (mod p), h monic.

    Quadratic lifting (von zur Gathen & Gerhard, Modern Computer
    Algebra, Alg. 15.10): the Bezout pair s*g + t*h = 1 is lifted along
    with g and h, so the precision doubles each step.  The lift is
    unique; g takes the leading coefficient of f, so g is monic when f
    is, and of higher degree than g0 when that coefficient is divisible
    by p: with g0 = 1 and h0 = f mod p, g is 1 mod p and carries those
    top coefficients, the block of f at [1:0] (`HenselReport.lift`).
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


def newton_root(f, r0, p, K):
    """The root of f mod p^K that reduces to r0, a simple root of f mod
    p, by Newton iteration with precision doubling (von zur Gathen &
    Gerhard, Modern Computer Algebra, Alg. 9.22): r <- r - f(r)/f'(r),
    with 1/f'(r) kept by its own Newton step inv <- inv (2 - f'(r) inv),
    so both gain twice the digits each step.  By Hensel's lemma the root
    is unique, so x - r is the lifted factor of x - r0 in every
    factorization of f mod p^K into parts coprime mod p."""
    df = pderiv(f)
    r, k = r0 % p, 1
    inv = pow(peval(df, r, p), -1, p)
    while k < K:
        k = min(2 * k, K)
        m = p**k
        r = (r - peval(f, r, m) * inv) % m
        if k == K:
            break  # the inverse only serves a further step
        inv = inv * (2 - peval(df, r, m) * inv) % m
    return r


def hensel_lift_factors(f, parts, p, K):
    """Lift f = prod(g^mult) mod p, `parts` [(g, mult)] its factorization
    mod p into distinct monic irreducibles (as `factor_monic_mod_p`
    gives it), of degree <= 4, to factors mod p^K, one = g^mult mod p
    per part, in the order of parts.  f has integer coefficients and is
    monic mod p; a leading part ([1], m) is its block at [1:0], 1 mod p,
    which takes the top coefficients of f divisible by p.

    Each simple root, a part (x - r0, 1), is lifted by `newton_root` to
    x - r and divided out of f mod p^K, exactly, since f(r) = 0 mod p^K;
    a quotient that is already monic linear is the last part left, and
    its own lift.  Every part left has degree >= 2, but for the block at
    [1:0], of degree >= 1, and the degrees add up to at most 4: at most
    two parts are left, and one `hensel_pair_lift` splits them, the
    first part's residue g^mult against f mod p divided by it.  Such a
    factorization is unique, so the two routines give the same
    factors."""
    if K < 1:
        raise HmsError("precision must be positive")
    m = p**K
    f = pmod(f, m)
    factors = []
    for g, mult in parts:
        factor = None
        if mult == 1 and deg(g) == 1:
            last = deg(f) == 1 and f[1] == 1
            factor = f if last else [-newton_root(f, -g[0], p, K) % m, 1]
            f = pdivmod(f, factor, m)[0]
        factors.append(factor)
    lifted = [f]
    others = [part for part, F in zip(parts, factors) if F is None]
    if len(others) > 1:
        (g, mult), _ = others
        g0 = [1]
        for _ in range(mult):
            g0 = pmul(g0, g, p)
        lifted = hensel_pair_lift(f, g0, pdivmod(pmod(f, p), g0, p)[0], p, K)
    lifted = iter(lifted)
    return [F or next(lifted) for F in factors]


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
    if len(parts) == 1:
        return [f]
    norm2 = isqrt(sum(c * c for c in F)) + 1
    bound = 2**d * (norm2 + 1)
    K = 1
    while p**K < 2 * bound + 1:
        K += 1
    lifted = hensel_lift_factors(F, parts, p, K)
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
    affine = trim(q.coeffs)
    factors = [(1, 0)] * (5 - len(affine))  # the factor u, once per root at [1:0]
    if deg(affine) >= 1:
        factors += [tuple(g) for g in factor_squarefree_int(affine)]
    return factors


def _pseudo_remainder(f, g):
    """lc(g)^k f mod g over Z, k the number of division steps: each
    step scales the dividend by lc(g) before it subtracts, so no step
    leaves Z."""
    f = list(f)
    while len(f) >= len(g):
        top, shift = f[-1], len(f) - len(g)
        f = [c * g[-1] for c in f]
        for i, b in enumerate(g):
            f[i + shift] -= top * b
        f = trim(f)
    return f


def binary_gcd(f, g):
    """The gcd over Q of two integer binary forms (c_0..c_d of t^i
    u^(d-i)), f nonzero and of degree at most g's, as a primitive binary
    form with a positive top coefficient: u to the lesser of their
    orders at [1:0], times the gcd of f(t, 1) and g(t, 1), by Euclid on
    primitive pseudo-remainders (Cohen, A Course in Computational
    Algebraic Number Theory, GTM 138, ch. 3)."""
    a, b = trim(f), trim(g)
    at_infinity = min(len(f) - len(a), len(g) - len(b))
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return _primitive(a) + [0] * at_infinity


# -- local analysis of a quartic over Q_p --------------------------------


@dataclass
class BlockReport:
    """One coprime block of the factorization over Z_p.

    The degree, residue degree, multiplicity, verdict and, for a
    (linear)^2 block, disc_valuation (the valuation of its discriminant)
    come from the residue factorization and the exact discriminant,
    except that two (linear)^2 blocks read their discriminants off a
    lift.  index is the block's place in every `HenselReport.lift`.

    residue_degree is the degree of the block's residue factor, 1 for a
    (linear)^2 block.  It is not always the degree of the ring its roots
    live in (`block_roots`): an unramified (linear)^2 block whose w, the
    unit part of its discriminant, is not a square mod p has its two
    roots in the degree-2 ring.
    """

    degree: int
    residue_degree: int
    multiplicity: int
    verdict: str  # "unramified" | "ramified" | "inconclusive"
    disc_valuation: int | None
    index: int


# (p, primitive quartic mod p) -> its `_Residue`; at most p^5 - 1 keys
# per prime, the nonzero residues: 242 mod 3, 3124 mod 5
_RESIDUES = {}


class _Residue:
    """What `hensel_factor_quartic` reads off a primitive quartic mod p,
    kept per residue (`_residue_of`): the quartics of one search meet
    few residues many times.

    top is the degree of the quartic mod p as a polynomial in t, so
    [1:0] is a root of multiplicity m = 4 - top; parts is the
    factorization of the affine reduction made monic by its unit top
    coefficient (`factor_monic_mod_p`); block_meta gives each block's
    (residue degree, multiplicity) and factors its residue factor mod p
    as a binary form, in the order of parts, then the block u^m at
    [1:0] when m > 0.
    """

    def __init__(self, ics, p):
        f = pmod(ics, p)
        self.top = deg(f)
        self.parts = factor_monic_mod_p(pscale(f, pow(f[-1], -1, p), p), p)
        self.factors = [list(g) for g, _ in self.parts]
        self.block_meta = block_meta = [(deg(g), mult) for g, mult in self.parts]
        if self.top < 4:
            self.factors.append([1, 0])
            block_meta.append((1, 4 - self.top))
        self.squarefree = all(mult == 1 for _, mult in block_meta)
        self.residue_degrees = tuple(
            sorted(rdeg for rdeg, mult in block_meta for _ in range(mult))
        )
        self.doubles = [i for i, meta in enumerate(block_meta) if meta == (1, 2)]


def _residue_of(ics, p) -> _Residue:
    """The `_Residue` of primitive integer coefficients c0..c4 mod p,
    built on the first quartic of that residue and kept in
    `_RESIDUES`."""
    key = (p, *[c % p for c in ics])
    if key not in _RESIDUES:
        _RESIDUES[key] = _Residue(ics, p)
    return _RESIDUES[key]


@dataclass
class HenselReport:
    """The factorization of a binary quartic over Z_p, built at the
    precision prec (`hensel_factor_quartic`), with what `lift` needs:
    the primitive integer coefficients `ics` and their `residue`, the
    structure mod p that every quartic of that residue shares, kept in
    `_RESIDUES`.  The quartic made monic mod p^prec by its unit top
    coefficient mod p is formed when `lift` is first read, so a report
    that no one lifts has computed mod p only."""

    p: int
    prec: int
    ics: tuple = field(repr=False)
    residue: _Residue = field(repr=False)
    squarefree_mod_p: bool
    residue_degrees: tuple
    verdict: str = field(init=False)
    blocks: list = field(init=False)
    _lifts: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def _monic(self):
        """The quartic divided by its coefficient of t^top mod p^prec."""
        m = self.p**self.prec
        lc_inv = pow(self.ics[self.residue.top], -1, m)
        return [(c * lc_inv) % m for c in self.ics]

    def lift(self, K):
        """Every block Hensel-lifted mod p^K, K <= prec, as a binary form
        of its degree, in `BlockReport.index` order, kept per K.

        One `hensel_lift_factors` call lifts the monic form, with the
        block at [1:0], m = 4 - top > 0, as its first part ([1], m).  The
        simple roots are divided out; every other block has degree >= 2,
        but for that one, and a quartic's blocks add up to degree 4, so
        at most two are left, split by one pair lift in which the block
        at [1:0] is 1 mod p and takes the top coefficients divisible by
        p.  That lift is then moved last and read as a form of degree
        m."""
        if K in self._lifts:
            return self._lifts[K]
        top, parts = self.residue.top, self.residue.parts
        at_infinity = [([1], 4 - top)] if top < 4 else []
        lifted = hensel_lift_factors(self._monic, at_infinity + parts, self.p, K)
        if at_infinity:
            g = lifted.pop(0)
            lifted.append(g + [0] * (5 - top - len(g)))
        self._lifts[K] = [tuple(F) for F in lifted]
        return self._lifts[K]

    def roots_reducing_into(self, g, blk) -> int:
        """How many roots of g, a primitive integer binary form (c_0..c_d
        of t^i u^(d-i)), counted with multiplicity, reduce mod p to a
        root of the residue factor r of the block `blk`: deg(r) times
        the multiplicity of r in g mod p, both taken as binary forms, so
        that a root at [1:0] and a top coefficient divisible by p count.

        Over the integers of a splitting field a primitive g is a unit
        times linear forms b t - a u with (a, b) primitive, and g mod p
        is the product of their reductions, each vanishing at its own
        root's reduction.  r is irreducible over F_p, so each of its
        deg(r) roots is the reduction of mult_r(g mod p) roots of g.
        The roots of the quartic that reduce to roots of r are exactly
        those of the block, whose other blocks are coprime to r mod p.
        """
        p = self.p
        r = self.residue.factors[blk.index]
        affine_r, affine_g = trim(r), pmod(g, p)
        if len(affine_r) < len(r):
            # r is a unit times u: the order of g mod p at [1:0]
            return len(g) - len(affine_g)
        mult = 0
        quotient, rest = pdivmod(affine_g, affine_r, p)
        while not rest:
            affine_g, mult = quotient, mult + 1
            quotient, rest = pdivmod(affine_g, affine_r, p)
        return (len(r) - 1) * mult


def hensel_factor_quartic(q: BinaryQuartic, p: int, prec: int) -> HenselReport:
    """Factor q over Z_p into coprime blocks and certify unramifiedness.

    A block is a residue factor to its multiplicity: u^m, m = 4 less
    the degree of q mod p, at [1:0], and the factors of the affine
    reduction made monic by its unit top coefficient.  All of that
    depends on q mod p alone and is kept per residue (`_residue_of`, at
    most p^5 - 1 residues per prime): q itself gives only v_p(D), D the
    discriminant `q.disc` of its primitive coefficients, and the
    valuations of (linear)^2 blocks.  The
    verdicts (odd p) are sound but incomplete:
      * a simple block -> unramified;
      * a (linear)^2 block -> the parity of its discriminant valuation
        (even -> unramified, odd -> the splitting field is ramified);
      * any other repeated block -> "inconclusive".
    No lift decides them unless the reduction has two (linear)^2
    blocks.  For monic f = g*h over Z_p with g and h coprime mod p,
    disc f = disc g * disc h * Res(g, h)^2 and Res(g, h) is a p-unit
    (Cohen, A Course in Computational Algebraic Number Theory, GTM 138,
    ch. 3); the block at [1:0] is a unit times u^m mod p, so its
    resultant with the monic rest, that rest's value at [1:0] to the
    m-th power, is a unit too.  A simple block has a unit discriminant,
    and the monic scaling changes D by a unit, so a lone
    (linear)^2 block's discriminant valuation is v_p(D).  Two
    (linear)^2 blocks each have a valuation >= 1, and the two add up to
    v_p(D), so they read `lift(min(prec, v_p(D)))`; one that is
    O(p^prec) there has v_p(D) - v, v the other's.  PrecisionError is
    raised for a (linear)^2 block when D = 0 or both are O(p^prec).
    The same sum shows that an "unramified" report has an even v_p(D),
    so an odd one decides "not unramified" without a report, which
    `search` reads first.

    The blocks come in the order of their residue factors, the block
    at [1:0] last, so nothing else here lifts: `block_roots` asks for
    the lift at the precision it reads.
    """
    if p % 2 == 0:
        raise HmsError("odd p required")
    if prec < 1:
        raise HmsError("precision must be positive")
    ics, disc = q.coeffs, q.disc
    residue = _residue_of(ics, p)
    report = HenselReport(
        p, prec, ics, residue, residue.squarefree, residue.residue_degrees
    )
    doubles = residue.doubles
    valuations = {}  # index of a (linear)^2 block -> v_p of its discriminant
    if len(doubles) == 2 and disc:
        k = min(prec, split_p_power(disc, p)[0])
        for index in doubles:
            # the discriminant of a binary quadratic is SL2-invariant
            c0, c1, c2 = report.lift(k)[index]
            block_disc = (c1 * c1 - 4 * c0 * c2) % p**k
            if block_disc:
                valuations[index] = split_p_power(block_disc, p)[0]
    unread = [index for index in doubles if index not in valuations]
    if disc and len(unread) == 1:
        # the (linear)^2 valuations add up to v_p(D)
        valuations[unread[0]] = split_p_power(disc, p)[0] - sum(valuations.values())
    blocks = []
    for index, (rdeg, mult) in enumerate(residue.block_meta):
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
        blocks.append(BlockReport(rdeg * mult, rdeg, mult, verdict, v, index))
    verdicts = {blk.verdict for blk in blocks}
    report.verdict = next(
        v for v in ("ramified", "inconclusive", "unramified") if v in verdicts
    )
    report.blocks = blocks
    return report


def require_root_digits(blk: BlockReport, K: int):
    """Raise PrecisionError when the roots of an unramified block have no
    digit mod p^K: a (linear)^2 block whose discriminant valuation v is
    at least K, for which the hint asks v + 1.  `block_roots` checks it,
    and so does a count of the roots that extracts none
    (`search._points_extracted`)."""
    v = blk.disc_valuation
    if v is not None and v >= K:
        raise PrecisionError(
            f"a double root's discriminant has valuation {v}, so its roots "
            f"have no digit at precision {K}",
            needed=v + 1,
        )


def block_roots(report: HenselReport, blk: BlockReport, K: int):
    """The p-adic roots of one block of `report`, in q's coordinates,
    read off the block's lift sum c_i t^i u^(d-i) mod p^K
    (`report.lift(K)`): each is (z, flipped), z in an `UnramifiedRing`,
    the point [z : 1], or [1 : z] when flipped.

    One rule orients every block: [z : 1] when the top coefficient c_d
    is a p-unit, else the coefficients reversed (t and u swapped) and
    [1 : z].  Every affine block is monic, so it reads [z : 1]; the
    block at [1:0] is 1 mod p with its top coefficient divisible by p,
    so it reads [1 : z].  Then, with c_0..c_d so oriented:
      * a simple linear block c1 z + c0 has the root z = -c0 / c1;
      * a simple block of residue degree d >= 2 (never flipped) has the
        root z = x, the generator of the degree-d ring of the block
        made monic;
      * an unramified (linear)^2 block a2 z^2 + a1 z + a0 has the roots
        z = (-a1 + s p^(v/2)) / (2 a2), s^2 = w, the unit part of the
        discriminant of valuation v = `disc_valuation`, mod p^(K-v):
        s = +-sqrt(w), the root of s^2 - w by `newton_root`, or the
        generator of the degree-2 ring (Z/p^(K-v))[s]/(s^2 - w) when w
        is not a square; with v >= K no digit of s is known, and
        PrecisionError asks for v + 1 (`require_root_digits`).
    A ramified or inconclusive block has no roots here, and reads no lift.
    """
    p = report.p
    m = p**K
    if blk.verdict != "unramified":
        return []
    require_root_digits(blk, K)
    v = blk.disc_valuation
    coeffs = report.lift(K)[blk.index]
    flipped = coeffs[-1] % p == 0
    if flipped:
        coeffs = coeffs[::-1]
    if blk.multiplicity == 1:
        inv = pow(coeffs[-1], -1, m)
        monic = [c * inv % m for c in coeffs]
        if blk.degree == 1:
            return [(UnramifiedRing(p, (0, 1), K).elt([-monic[0]]), flipped)]
        return [(UnramifiedRing(p, monic, K).gen(), flipped)]
    a0, a1, a2 = coeffs
    keff = K - v
    w = (a1 * a1 - 4 * a0 * a2) % m // p**v
    r0 = next((r for r in range(p) if (r * r - w) % p == 0), None)
    if r0 is not None:
        ring = UnramifiedRing(p, (0, 1), keff)
        s = ring.elt([newton_root([-w, 0, 1], r0, p, keff)])
        square_roots = [s, -s]
    else:
        ring = UnramifiedRing(p, [-w, 0, 1], keff)
        square_roots = [ring.gen()]
    inv_lead = ring.elt([pow(2 * a2, -1, ring.mod)])
    return [((s * p ** (v // 2) - a1) * inv_lead, flipped) for s in square_roots]
