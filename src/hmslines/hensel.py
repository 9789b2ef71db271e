"""Univariate polynomial arithmetic mod p / mod p^K, Hensel lifting,
factorization over Q for degree <= 4, and local unramifiedness analysis
of binary quartics.

Polynomials are coefficient lists, low degree first, trailing zeros
stripped.  The zero polynomial is [].

The local analysis (`hensel_factor_quartic`) is sound but deliberately
incomplete: it certifies "unramified" only via (a) squarefree reduction
mod p or (b) quadratic blocks whose lifted discriminant has even
valuation (odd p); everything else is reported "inconclusive".
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, isqrt

from .errors import DegenerateLineError, HmsError, PrecisionError
from .quartics import BinaryQuartic
from .scalars import primitive_integers, split_p_power

# -- coefficient-list helpers ------------------------------------------


def trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def deg(f):
    return len(f) - 1


def pmod(f, p):
    return trim([c % p for c in f])


def psub(f, g, p):
    n = max(len(f), len(g))
    return trim([((f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)) % p
                 for i in range(n)])


def pmul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return trim(out)


def pscale(f, c, p):
    return trim([(a * c) % p for a in f])


def pdivmod(f, g, p):
    """Division with remainder mod p; lc(g) must be invertible mod p."""
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    f = pmod(f, p)
    g = pmod(g, p)
    inv = pow(g[-1], -1, p)
    q = [0] * max(0, len(f) - len(g) + 1)
    while len(f) >= len(g) and f:
        c = (f[-1] * inv) % p
        k = len(f) - len(g)
        q[k] = c
        for i, b in enumerate(g):
            f[i + k] = (f[i + k] - c * b) % p
        f = trim(f)
    return trim(q), f


def pgcd(f, g, p):
    """Monic gcd mod p."""
    f, g = pmod(f, p), pmod(g, p)
    while g:
        f, g = g, pdivmod(f, g, p)[1]
    if f:
        f = pscale(f, pow(f[-1], -1, p), p)
    return f


def pext_euclid(f, g, p):
    """(s, t) with s*f + t*g = 1 mod p, for coprime f, g."""
    r0, r1 = pmod(f, p), pmod(g, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, psub(s0, pmul(q, s1, p), p)
        t0, t1 = t1, psub(t0, pmul(q, t1, p), p)
    if deg(r0) != 0:
        raise HmsError("polynomials not coprime mod p")
    inv = pow(r0[0], -1, p)
    return pscale(s0, inv, p), pscale(t0, inv, p)


def pderiv(f):
    return trim([i * c for i, c in enumerate(f)][1:])


def ppowmod(base, e, modpoly, p):
    """base^e mod (modpoly, p)."""
    result = [1]
    base = pdivmod(base, modpoly, p)[1]
    while e:
        if e & 1:
            result = pdivmod(pmul(result, base, p), modpoly, p)[1]
        base = pdivmod(pmul(base, base, p), modpoly, p)[1]
        e >>= 1
    return result


def peval(f, x, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


# -- factorization mod p for degree <= 4 --------------------------------


def factor_monic_mod_p(f, p):
    """Irreducible factorization of a monic poly of degree <= 4 mod p.

    Returns [(monic factor, multiplicity)] sorted by (degree, coeffs).
    Roots are found by scanning F_p (p is small here); a rootless
    quartic is split into quadratics, when it splits, via x^(p^2) = x
    and deterministic equal-degree splitting.
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
            work, rem = pdivmod(work, [(-r) % p, 1], p)
            assert not rem
            key = ((-r) % p, 1)
            factors[key] = factors.get(key, 0) + 1
    d = deg(work)
    if d == 0:
        pass
    elif d in (2, 3):
        # rootless quadratics and cubics are irreducible
        factors[tuple(work)] = factors.get(tuple(work), 0) + 1
    elif d == 4:
        g = pgcd(work, pderiv(work), p)
        if deg(g) == 2:
            # work = g^2 with g an irreducible quadratic (rootless, p odd)
            q2, rem = pdivmod(work, g, p)
            if rem or q2 != g:
                raise HmsError("unexpected square structure mod p")
            factors[tuple(g)] = factors.get(tuple(g), 0) + 2
        elif deg(g) == 0:
            xq = ppowmod([0, 1], p * p, work, p)
            if xq == [0, 1]:
                # roots all in F_{p^2}: product of two irreducible quadratics
                h = _split_two_quadratics(work, p)
                other, rem = pdivmod(work, h, p)
                assert not rem
                for part in (h, other):
                    key = tuple(part)
                    factors[key] = factors.get(key, 0) + 1
            else:
                factors[tuple(work)] = factors.get(tuple(work), 0) + 1
        else:
            raise HmsError("unexpected gcd degree in quartic mod p")
    else:
        raise HmsError("unexpected cofactor degree")
    return sorted(factors.items(), key=lambda kv: (len(kv[0]), kv[0]))


def _split_two_quadratics(f, p):
    """Split a squarefree rootless quartic known to be quad*quad mod p."""
    half = (p * p - 1) // 2
    for a in range(p):
        h = ppowmod([a, 1], half, f, p)
        h = psub(h, [1], p)
        g = pgcd(h, f, p)
        if 0 < deg(g) < 4:
            if deg(g) == 2:
                return g
            # degree can only be 2 here (no roots in F_p)
            q, rem = pdivmod(f, g, p)
            assert not rem
            return q if deg(q) == 2 else g
    raise HmsError("equal-degree splitting failed")


# -- Hensel lifting ------------------------------------------------------


def hensel_pair_lift(f, g0, h0, p, K):
    """Lift f = g0*h0 (mod p), gcd(g0,h0)=1, to f = g*h (mod p^K).

    All of f, g0, h0 monic; returns (g, h) monic mod p^K.
    """
    s, t = pext_euclid(g0, h0, p)
    g = [c % p for c in g0]
    h = [c % p for c in h0]
    pk = p
    for _ in range(K - 1):
        pk_next = pk * p
        # defect e = (f - g*h)/p^k  (mod p)
        prod = _int_mul(g, h)
        e = [((fc - pc) // pk) % p
             for fc, pc in _zip_pad(f, prod)]
        e = trim(e)
        u = pdivmod(pmul(t, e, p), g0, p)[1]
        num = psub(e, pmul(u, h0, p), p)
        w, rem = pdivmod(num, g0, p)
        if rem:
            raise HmsError("hensel step: division defect")
        g = trim([(a + pk * b) % pk_next for a, b in _zip_pad(g, u)])
        h = trim([(a + pk * b) % pk_next for a, b in _zip_pad(h, w)])
        pk = pk_next
    m = p**K
    return [c % m for c in g], [c % m for c in h]


def _zip_pad(f, g):
    n = max(len(f), len(g))
    return zip(
        list(f) + [0] * (n - len(f)),
        list(g) + [0] * (n - len(g)),
    )


def _int_mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


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


def newton_lift_root(f, r0, p, K):
    """Lift a simple root r0 of f mod p to a root mod p^K."""
    fp = pderiv(f)
    if peval(fp, r0, p) == 0:
        raise HmsError("root is not simple mod p")
    r = r0 % p
    mod = p
    while mod < p**K:
        mod = min(mod * mod, p**K)
        fr = _int_eval(f, r) % mod
        fpr = _int_eval(fp, r) % mod
        r = (r - fr * pow(fpr, -1, mod)) % mod
    return r % p**K


def _int_eval(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


# -- factorization over Q for degree <= 4 --------------------------------


def _int_divmod_exact(f, g):
    """Exact division of integer polys (g monic up to sign); None if inexact."""
    f = trim(list(f))
    g = trim(list(g))
    if not g:
        return None
    q = [0] * max(0, len(f) - len(g) + 1)
    while len(f) >= len(g) and f:
        if f[-1] % g[-1] != 0:
            return None
        c = f[-1] // g[-1]
        k = len(f) - len(g)
        q[k] = c
        for i, b in enumerate(g):
            f[i + k] -= c * b
        f = trim(f)
    if f:
        return None
    return trim(q)


def _primitive(f):
    f = trim(f)
    if not f:
        return f
    f = primitive_integers(f)
    return f if f[-1] > 0 else [-a for a in f]


def factor_squarefree_int(f):
    """Irreducible factors (primitive, positive lc) of a squarefree
    integer polynomial of degree <= 4, by degree-4 Zassenhaus: factor
    mod a good prime, Hensel lift past the Mignotte bound, recombine."""
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
    p = 3
    while True:
        fb = pmod(F, p)
        if deg(fb) == d and deg(pgcd(fb, pderiv(fb), p)) == 0:
            break
        p = _next_prime(p)
        if p > 10**6:
            raise HmsError("no good prime found; input not squarefree?")
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
    while active:
        hit = False
        for combo in combinations(active, size):
            prod = [1]
            for idx in combo:
                prod = [c % m for c in _int_mul(prod, lifted[idx])]
            cand = [_symmetric(c, m) for c in prod]
            q = _int_divmod_exact(remaining, cand)
            if q is not None:
                found.append(cand)
                remaining = q
                active = [i for i in active if i not in combo]
                hit = True
                break
        if not hit:
            size += 1
            if size > len(active):
                # remaining subset product is irreducible
                found.append(remaining)
                active = []
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

    Returns (unit, factors) with unit a Fraction and factors a list of
    (coeff tuple, 1); each coeff tuple (c_0..c_d) encodes the primitive
    irreducible binary form sum c_i t^i u^(d-i).  The product of the
    factors times unit equals q.
    """
    affine = trim(primitive_int_coeffs(q))
    inf_mult = 5 - len(affine) if affine else 5
    d_aff = deg(affine)
    factors = []
    for _ in range(inf_mult):
        factors.append(((1, 0), 1))  # the factor u
    if d_aff >= 1:
        for g in factor_squarefree_int(affine):
            factors.append((tuple(g), 1))
    unit = _binary_unit(q, factors)
    return unit, factors


def _binary_unit(q, factors):
    # evaluate both sides at points to solve for the constant
    for t, u in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4)):
        prod = Fraction(1)
        for g, mult in factors:
            d = len(g) - 1
            val = sum(Fraction(c) * t**i * u ** (d - i) for i, c in enumerate(g))
            if val == 0:
                prod = None
                break
            prod *= val**mult
        if prod:
            return Fraction(q.evaluate(Fraction(t), Fraction(u))) / prod
    raise HmsError("could not normalize binary factorization unit")


# -- local analysis of a quartic over Q_p --------------------------------


@dataclass
class BlockReport:
    """One coprime block of the factorization over Z_p.

    coeffs_mod holds the block as a binary form in the original chart:
    modulo p^prec when the block was Hensel lifted (repeated reduction,
    or a simple root), modulo p for the residue factors of a squarefree
    reduction of degree >= 2 (their roots live in the unramified
    extension of that residue degree and are tracked symbolically).
    """

    degree: int
    residue_degree: int
    multiplicity: int
    verdict: str  # "unramified" | "ramified" | "inconclusive"
    coeffs_mod: tuple | None = None
    disc_valuation: int | None = None
    lifted_root: tuple | None = None  # projective (t, u) mod p^prec


@dataclass
class HenselReport:
    p: int
    prec: int
    squarefree_mod_p: bool
    residue_degrees: tuple
    verdict: str
    blocks: list


def primitive_int_coeffs(q: BinaryQuartic):
    """Coefficients c0..c4 of q scaled to coprime integers, signs kept."""
    if q.is_degenerate:
        raise DegenerateLineError(
            "the zero form has no primitive integer model"
        )
    return primitive_integers(q.coeffs)


def _proj_normalize(a, b, p, K):
    """Canonical representative of [a : b] over Z/p^K (one coord a unit)."""
    m = p**K
    a %= m
    b %= m
    if b % p != 0:
        inv = pow(b, -1, m)
        return ((a * inv) % m, 1)
    if a % p != 0:
        inv = pow(a, -1, m)
        return (1, (b * inv) % m)
    raise HmsError("point not primitive mod p")


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
    """
    if ics[4] % p != 0:
        return ((1, 0), (0, 1))
    affine = [c % p for c in ics]
    for m in range(p):
        if peval(affine, m, p) != 0:
            return ((m, -1), (1, 0))
    raise HmsError("quartic vanishes on all of P^1 mod p; no unit chart")


def hensel_factor_quartic(q: BinaryQuartic, p: int, prec: int) -> HenselReport:
    """Factor q over Z_p into coprime blocks and certify unramifiedness.

    Sound-but-incomplete scheme (odd p):
      * reduction squarefree as a binary form over F_p  -> unramified,
        with simple F_p-roots Newton-lifted mod p^prec;
      * repeated reduction: the coprime-block factorization is Hensel
        lifted mod p^prec; a (linear)^2 block is certified by the parity
        of its discriminant valuation (even -> unramified, odd -> the
        splitting field is ramified);
      * any other repeated block -> "inconclusive".
    """
    if p % 2 == 0:
        raise HmsError("odd p required")
    if prec < 1:
        raise HmsError("precision must be positive")
    ics = primitive_int_coeffs(q)
    m = p**prec
    affine = [c % p for c in ics]
    inf_mult_bar = 0
    tmp = list(affine)
    while tmp and tmp[-1] == 0:
        tmp.pop()
        inf_mult_bar += 1
    fbar = tmp  # q(t,1) mod p, degree 4 - inf_mult_bar
    lcinv = pow(fbar[-1], -1, p)
    fbar_monic = pscale(fbar, lcinv, p)
    parts = factor_monic_mod_p(fbar_monic, p)
    mults = [mult for _, mult in parts] + ([inf_mult_bar] if inf_mult_bar else [])
    squarefree = all(mt == 1 for mt in mults)
    residue_degrees = tuple(
        sorted(
            [deg(list(g)) for g, mult in parts for _ in range(mult)]
            + [1] * inf_mult_bar
        )
    )

    blocks = []
    if squarefree:
        f_int = list(ics)
        for g, _ in parts:
            g = list(g)
            if deg(g) == 1:
                r0 = (-g[0]) % p
                r = newton_lift_root(f_int, r0, p, prec) % m
                blocks.append(
                    BlockReport(1, 1, 1, "unramified", ((-r) % m, 1), None, (r, 1))
                )
            else:
                blocks.append(
                    BlockReport(deg(g), deg(g), 1, "unramified", tuple(g), None, None)
                )
        if inf_mult_bar:
            rev = list(reversed(ics))  # q(1, u)
            r = newton_lift_root(rev, 0, p, prec) % m
            blocks.append(
                BlockReport(1, 1, 1, "unramified", (1, (-r) % m), None, (1, r))
            )
        return HenselReport(p, prec, True, residue_degrees, "unramified", blocks)

    # repeated factors: move to a chart where the leading coefficient is
    # a unit (exists: a quartic with a repeated projective root has at
    # most 3 distinct roots < p + 1 points in P^1(F_p))
    sub = unit_chart(ics, p)
    f = compose_binary(ics, sub)
    lc_inv_m = pow(f[4] % m, -1, m)
    f_monic = [(c * lc_inv_m) % m for c in f]
    fb = pmod(f_monic, p)
    parts2 = factor_monic_mod_p(fb, p)
    block_polys_bar = []
    block_meta = []  # (residue_degree, multiplicity)
    for g, mult in parts2:
        bp = [1]
        for _ in range(mult):
            bp = pmul(bp, list(g), p)
        block_polys_bar.append(bp)
        block_meta.append((deg(list(g)), mult))
    if len(block_polys_bar) == 1:
        lifted = [[c % m for c in f_monic]]
    else:
        lifted = hensel_lift_factors(f_monic, block_polys_bar, p, prec)

    (a, b), (c, d) = sub
    inv_sub = ((d, -b), (-c, a))  # det = 1

    for (rdeg, mult), B in zip(block_meta, lifted):
        dblock = deg(B)
        # block coefficients (t low->high, monic) back in the original
        # chart, as a binary form
        orig = compose_binary(B, inv_sub, m)
        if mult == 1:
            if dblock == 1:
                t0 = (-B[0]) % m
                pt = _proj_normalize(a * t0 + b, c * t0 + d, p, prec)
                blocks.append(
                    BlockReport(1, 1, 1, "unramified", tuple(orig), None, pt)
                )
            else:
                blocks.append(
                    BlockReport(
                        dblock, rdeg, 1, "unramified", tuple(orig), None, None
                    )
                )
        elif dblock == 2 and rdeg == 1:
            # (linear)^2 block: discriminant parity decides (odd p)
            e1, e0 = B[1], B[0]
            disc = (e1 * e1 - 4 * e0) % m
            if disc == 0:
                raise PrecisionError(
                    f"block discriminant is O({p}^{prec}); re-run at higher "
                    "precision",
                    needed=prec + 1,
                )
            v = split_p_power(disc, p)[0]
            verdict = "unramified" if v % 2 == 0 else "ramified"
            blocks.append(
                BlockReport(2, 1, 2, verdict, tuple(orig), v, None)
            )
        else:
            blocks.append(
                BlockReport(dblock, rdeg, mult, "inconclusive", tuple(orig), None, None)
            )

    if any(b.verdict == "ramified" for b in blocks):
        verdict = "ramified"
    elif all(b.verdict == "unramified" for b in blocks):
        verdict = "unramified"
    else:
        verdict = "inconclusive"
    return HenselReport(p, prec, False, residue_degrees, verdict, blocks)

