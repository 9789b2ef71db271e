"""Randomized probe for precision stability of the p-adic ordinarity test.

The exact-rational computation is the oracle.  The same point lifted to a
capped working precision may leave the verdict undecided (PrecisionError),
but whenever it decides, the verdict has to agree with the oracle, and a
decision reached at a lower precision must survive every higher one.

Each point also goes through the path certificates use,
`search._point_invariants` on the identity model, as its primitive
integer representative mod p^prec.  There an undecided verdict is None;
a decided one, and every determined ratio valuation, must match the
oracle, and a decision must survive the higher precision.
"""

import random
from fractions import Fraction

from hmslines import (
    BadLocusError,
    PrecisionError,
    identity_twist,
    lift_to_padic,
    ordinarity_from_profile,
    sigma_profile,
    twisted_equations,
)
from hmslines.scalars import primitive_integers
from hmslines.search import LocalPoint, _point_invariants

DENOMINATORS = (1, 1, 1, 2, 3, 4, 5, 25)


def random_rational_point(rng):
    coords = []
    for _ in range(6):
        num = rng.randint(-60, 60)
        den = rng.choice(DENOMINATORS)
        coords.append(Fraction(num, den))
    return coords


def lifted_point(coords, p, prec):
    out = []
    for c in coords:
        if c == 0:
            out.append(c)
        else:
            out.append(lift_to_padic(c, p, prec))
    return out


def certificate_entry(model, coords, p, prec):
    """The certificate's 5-adic point entry of a rational point mod p^prec."""
    m = p**prec
    ints = tuple(c % m for c in primitive_integers(coords))
    return _point_invariants(model, LocalPoint(0, "rational", ints, p, prec, 1, 1))


def certificate_violations(entries, oracle, coords, low, high):
    """Disagreements of the certificate path with the oracle, by precision."""
    violations = []
    for prec, entry in entries.items():
        if entry["ordinary"] not in (None, oracle.passed):
            violations.append(("certificate verdict", prec, coords))
        for attr in ("v_u1", "v_u2"):
            if entry[attr] not in (None, getattr(oracle, attr)):
                violations.append(("certificate " + attr, prec, coords))
    decided = entries[low]["ordinary"]
    if decided is not None and entries[high]["ordinary"] != decided:
        violations.append(("certificate decision lost or flipped", coords))
    return violations


def run_probe(n=100, seed=93, p=5, low=4, high=8):
    """Compare capped-precision ordinarity runs against the exact oracle.

    Returns a dict with counts and a list of violations; an empty
    violation list means every decided verdict, on the profile path and
    on the certificate path, matched the oracle and no decision was lost
    by raising the precision.
    """
    rng = random.Random(seed)
    model = twisted_equations(identity_twist())
    kept = 0
    decided_low = 0
    decided_high = 0
    certificate_decided = {low: 0, high: 0}
    violations = []
    attempts = 0
    while kept < n:
        attempts += 1
        if attempts > 100 * n:
            raise RuntimeError("point generation stalled")
        coords = random_rational_point(rng)
        try:
            oracle = ordinarity_from_profile(sigma_profile(coords), p)
        except BadLocusError:
            continue
        kept += 1
        entries = {
            prec: certificate_entry(model, coords, p, prec) for prec in (low, high)
        }
        for prec, entry in entries.items():
            certificate_decided[prec] += entry["ordinary"] is not None
        violations.extend(certificate_violations(entries, oracle, coords, low, high))
        outcomes = {}
        for prec in (low, high):
            try:
                profile = sigma_profile(lifted_point(coords, p, prec))
                outcomes[prec] = ordinarity_from_profile(profile, p)
            except PrecisionError:
                outcomes[prec] = None
        low_cert = outcomes[low]
        high_cert = outcomes[high]
        if low_cert is not None:
            decided_low += 1
            if low_cert.passed != oracle.passed:
                violations.append(("low verdict", coords, low_cert.passed))
            if high_cert is None:
                violations.append(("decision lost at higher precision", coords))
            elif high_cert.passed != low_cert.passed:
                violations.append(("verdict flipped", coords))
        if high_cert is not None:
            decided_high += 1
            if high_cert.passed != oracle.passed:
                violations.append(("high verdict", coords, high_cert.passed))
            for attr in ("v_u1", "v_u2"):
                approx = getattr(high_cert, attr)
                exact = getattr(oracle, attr)
                if isinstance(approx, int) and isinstance(exact, int):
                    if approx != exact:
                        violations.append((attr, coords, approx, exact))
    return {
        "points": kept,
        "decided_low": decided_low,
        "decided_high": decided_high,
        "certificate_decided_low": certificate_decided[low],
        "certificate_decided_high": certificate_decided[high],
        "violations": violations,
    }
