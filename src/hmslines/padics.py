"""Polynomials mod p^k, and unramified p-adic rings mod p^K with sound
valuations.

The kernel is univariate polynomial arithmetic over Z/p^k, k >= 1, on
coefficient lists: low degree first, trailing zeros stripped, the zero
polynomial [].  Its modulus argument is named `p` whatever k is.
`pdivmod` takes arguments already reduced mod p and trimmed, as every
kernel result is, and needs a divisor whose leading coefficient is a
unit.  Hensel lifting in `hensel` and the ring arithmetic below both
run on it.

`UnramifiedRing` models (Z/p^K)[t]/(m) for m monic and irreducible
mod p: the ring of integers of the unramified extension of Q_p of
degree deg(m), with every element known to the uniform absolute
precision p^K.  Because the extension is unramified, the valuation of
an element is the minimum valuation of its coordinates.  A degree-1
ring, modulus (0, 1), is Z/p^K itself: the intersection points of
`search` live in one of these rings, degree 1 for a rational point and
degree d for d conjugate points.  At precision K = 1 the ring is the
finite field F_{p^d}, in which the char-5 worked example of `verify`
works: F_25 = F_5[t]/(t^2 + 3), whose roots it finds by a scan.

Indeterminacy is a value, never a silent rounding: an element that is
zero mod p^K has the valuation None, undetermined (its ring's K is a
lower bound), and callers that need a decision raise `PrecisionError`
or write None where the certificate writes `null`.  A determined
valuation is below K and is the true one.
"""

from itertools import zip_longest

from .errors import HmsError
from .scalars import split_p_power


# -- the polynomial kernel mod p^k ---------------------------------------


def trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def deg(f):
    return len(f) - 1


def pmod(f, p):
    return trim([c % p for c in f])


def padd(f, g, p):
    return trim([(a + b) % p for a, b in zip_longest(f, g, fillvalue=0)])


def psub(f, g, p):
    return trim([(a - b) % p for a, b in zip_longest(f, g, fillvalue=0)])


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
    """Division with remainder mod p of f by g, both reduced mod p and
    trimmed (as every kernel result is); lc(g) must be invertible mod p."""
    f = list(f)
    n = len(g) - 1
    inv = pow(g[-1], -1, p)
    q = [0] * max(0, len(f) - n)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = f[k + n] * inv % p
        if c:
            for i, b in enumerate(g):
                f[k + i] = (f[k + i] - c * b) % p
    return trim(q), trim(f[:n])


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
    """base^e mod (modpoly, p), modpoly reduced and trimmed."""
    result = [1]
    base = pdivmod(pmod(base, p), modpoly, p)[1]
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


def pevalmod(f, x, modpoly, p):
    """f(x) mod (modpoly, p), for integer coefficients f and x reduced
    mod (modpoly, p), modpoly monic: one Horner pass, each step reduced
    by modpoly; a constant x is one `peval`, and the generator x = t
    (so deg modpoly >= 2) one remainder, since f(t) = f mod modpoly in
    (Z/p)[t]/(modpoly)."""
    if len(x) <= 1:
        return pmod([peval(f, x[0] if x else 0, p)], p)
    if x == [0, 1]:
        return pdivmod(pmod(f, p), modpoly, p)[1]
    acc = []
    for c in reversed(f):
        acc = padd(pdivmod(pmul(acc, x, p), modpoly, p)[1], [c], p)
    return acc


# -- unramified rings ----------------------------------------------------


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
        """The element with integer coordinates `coeffs`, reduced mod
        (p^K, m): the one entry for coordinates from outside."""
        return self._wrap(pmod(coeffs, self.mod))

    def _wrap(self, coeffs):
        """The element of `coeffs`, a kernel result mod p^K: its
        remainder by the modulus, padded to deg coordinates."""
        if len(coeffs) > self.deg:
            coeffs = pdivmod(coeffs, self.modulus, self.mod)[1]
        return UElt(self, tuple(coeffs) + (0,) * (self.deg - len(coeffs)))

    def zero(self):
        return self._wrap([])

    def one(self):
        return self._wrap([1])

    def gen(self):
        if self.deg < 2:
            raise HmsError("prime ring has no generator")
        return self._wrap([0, 1])


class UElt:
    """Element of an UnramifiedRing, known mod p^K.

    `coeffs` is a tuple of deg coordinates, each in [0, p^K), which the
    constructor trusts: elements come from the ring's `elt` or from
    arithmetic, never from raw coordinates.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs

    def _coerce(self, x):
        if isinstance(x, UElt):
            if x.ring is not self.ring and (
                x.ring.p != self.ring.p
                or x.ring.K != self.ring.K
                or x.ring.modulus != self.ring.modulus
            ):
                raise HmsError("mixed unramified rings")
            return x
        if isinstance(x, int):
            return self.ring.elt([x])
        return None

    def _shift(self, c):
        """self + c for an int c: only the constant coordinate moves."""
        coeffs = self.coeffs
        return UElt(self.ring, ((coeffs[0] + c) % self.ring.mod,) + coeffs[1:])

    def __add__(self, other):
        if isinstance(other, int):
            return self._shift(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.ring._wrap(padd(self.coeffs, o.coeffs, self.ring.mod))

    __radd__ = __add__

    def __neg__(self):
        return self.ring._wrap(psub([], self.coeffs, self.ring.mod))

    def __sub__(self, other):
        if isinstance(other, int):
            return self._shift(-other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.ring._wrap(psub(self.coeffs, o.coeffs, self.ring.mod))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, int):
            return self.ring._wrap(pscale(self.coeffs, other, self.ring.mod))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.ring._wrap(pmul(self.coeffs, o.coeffs, self.ring.mod))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise HmsError("negative powers not supported in UElt")
        ring = self.ring
        return ring._wrap(ppowmod(self.coeffs, k, ring.modulus, ring.mod))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.ring.mod, self.ring.modulus, self.coeffs))

    def valuation(self):
        """min coordinate valuation (unramified); None if 0 mod p^K."""
        vals = [split_p_power(c, self.ring.p)[0] for c in self.coeffs if c]
        return min(vals) if vals else None
