"""Independent checks on certificates, written without hmslines code.

Each check recomputes a field of a certificate from the quartic's
coefficients alone, by a different formula than the package uses:

* the discriminant by the classical 16-term polynomial;
* the real root count by a Sturm sequence written here;
* unramifiedness one way each: a p-adic unit discriminant forces the
  verdict "unramified", and an odd discriminant valuation forbids it
  (the field discriminant then has odd valuation, so p ramifies).

`certificate_errors` returns a list of human-readable defects; an
empty list means the certificate passed every check.
"""

from fractions import Fraction
from math import gcd, isqrt


def discriminant(c):
    """Discriminant of c4 t^4 + c3 t^3 u + c2 t^2 u^2 + c1 t u^3 + c0 u^4."""
    e, d, c_, b, a = c
    return (
        256 * a**3 * e**3
        - 192 * a**2 * b * d * e**2
        - 128 * a**2 * c_**2 * e**2
        + 144 * a**2 * c_ * d**2 * e
        - 27 * a**2 * d**4
        + 144 * a * b**2 * c_ * e**2
        - 6 * a * b**2 * d**2 * e
        - 80 * a * b * c_**2 * d * e
        + 18 * a * b * c_ * d**3
        + 16 * a * c_**4 * e
        - 4 * a * c_**3 * d**2
        - 27 * b**4 * e**2
        + 18 * b**3 * c_ * d * e
        - 4 * b**3 * d**3
        - 4 * b**2 * c_**3 * e
        + b**2 * c_**2 * d**2
    )


def valuation(x, p):
    x = Fraction(x)
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def is_square(x):
    x = Fraction(x)
    if x < 0:
        return False
    n, d = x.numerator, x.denominator
    return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d


def primitive(coeffs):
    """The primitive integer multiple (up to sign) of rational coefficients."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    content = 0
    for x in ints:
        content = gcd(content, x)
    return [x // content for x in ints]


def _trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _rem(f, g):
    f = list(f)
    while len(f) >= len(g):
        q = f[-1] / g[-1]
        shift = len(f) - len(g)
        for i, gi in enumerate(g):
            f[shift + i] -= q * gi
        f.pop()
        _trim(f)
    return f


def _sign_changes(chain, at_plus_inf):
    signs = []
    for f in chain:
        s = 1 if f[-1] > 0 else -1
        if not at_plus_inf and (len(f) - 1) % 2:
            s = -s
        signs.append(s)
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def real_root_count(c):
    """Distinct real projective roots of a squarefree binary quartic."""
    f = _trim([Fraction(x) for x in c])
    count = 1 if len(f) < 5 else 0  # [1:0] is a root when c4 = 0
    if len(f) > 1:
        chain = [f, _trim([i * f[i] for i in range(1, len(f))])]
        while len(chain[-1]) > 1:
            r = _rem(chain[-2], chain[-1])
            if not r:
                break
            chain.append([-x for x in r])
        count += _sign_changes(chain, False) - _sign_changes(chain, True)
    return count


def _unramified_errors(section, disc_prim, p):
    if section is None:
        return [f"local_{p} section missing"]
    v = valuation(disc_prim, p)
    if v == 0 and section["verdict"] != "unramified":
        return [f"unit discriminant at {p} but verdict {section['verdict']}"]
    if v % 2 == 1 and section["verdict"] == "unramified":
        return [f"odd discriminant valuation at {p} but verdict unramified"]
    return []


def certificate_errors(data):
    """Defects of one certificate (a parsed JSON dict) against the oracles."""
    errors = []
    quartic = data["quartic"]
    coeffs = [Fraction(s) for s in quartic["coeffs"]]
    prim = quartic["primitive_coeffs"]
    content = 0
    for x in prim:
        content = gcd(content, x)
    if content != 1:
        errors.append("primitive_coeffs are not primitive")
    pivot = next(i for i, x in enumerate(prim) if x)
    if any(coeffs[i] * prim[pivot] != prim[i] * coeffs[pivot] for i in range(5)):
        errors.append("primitive_coeffs are not a multiple of coeffs")
    disc = discriminant(coeffs)
    if Fraction(quartic["discriminant"]) != disc:
        errors.append("discriminant differs from the classical formula")
    summary = data["summary"]
    if disc == 0:
        if summary["passed"]:
            errors.append("a tangential line passed")
        return errors
    for p in (3, 5):
        if quartic[f"disc_valuation_{p}"] != valuation(disc, p):
            errors.append(f"disc_valuation_{p} is wrong")
    if data["galois"]["disc_is_square"] != is_square(disc):
        errors.append("galois.disc_is_square is wrong")
    count = real_root_count(coeffs)
    if data["real"]["root_count"] != count:
        errors.append(f"real root count {data['real']['root_count']} != {count}")
    disc_prim = discriminant(prim)
    errors += _unramified_errors(data["local_3"], disc_prim, 3)
    errors += _unramified_errors(data["local_5"], disc_prim, 5)
    checks = summary["checks"]
    if "real_four_roots" in checks and checks["real_four_roots"] != (count == 4):
        errors.append("real_four_roots disagrees with the root count")
    if "unramified_at_3" in checks and checks["unramified_at_3"] != (
        data["local_3"]["verdict"] == "unramified"
    ):
        errors.append("unramified_at_3 disagrees with the local verdict")
    if summary["passed"] != (bool(checks) and all(checks.values())):
        errors.append("passed disagrees with the gate checks")
    return errors
