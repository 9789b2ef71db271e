"""Randomized probe of the certificate path's 5-adic ordinarity test.

The exact-rational computation, `exact_oracles.ordinarity` of the
point's sigma values, is the oracle.  Each point goes through the path
certificates use, `search._point_invariants` on the identity model's
forms restricted to a span whose first row is the point's primitive
integer representative, as [1 : 0] mod p^prec, at a low and a high
precision.  There an undecided verdict is None; a decided one, and
every determined ratio valuation, must match the oracle, and a decision
reached at the low precision must survive the high one.
"""

import random
from fractions import Fraction

from exact_oracles import ordinarity, sigmas
from hmslines.padics import UnramifiedRing
from hmslines.scalars import primitive_integers
from hmslines.search import LocalPoint, _SpanForms, _point_invariants
from hmslines.surface import identity_twist, twisted_equations

DENOMINATORS = (1, 1, 1, 2, 3, 4, 5, 25)


def random_rational_point(rng):
    coords = []
    for _ in range(6):
        num = rng.randint(-60, 60)
        den = rng.choice(DENOMINATORS)
        coords.append(Fraction(num, den))
    return coords


def certificate_entry(model, coords, p, prec):
    """The certificate's 5-adic point entry of a rational point mod p^prec.

    The forms are restricted to a span whose first row is the point's
    primitive integer representative, and the point is [1 : 0] on it.
    """
    ring = UnramifiedRing(p, (0, 1), prec)
    forms = _SpanForms(model, (primitive_integers(coords), (0,) * 6), p)
    return _point_invariants(forms, LocalPoint(0, ring.zero(), True))


def certificate_violations(entries, oracle, coords, low, high):
    """Disagreements of the certificate path with the oracle, by precision."""
    violations = []
    for prec, entry in entries.items():
        if entry["ordinary"] not in (None, oracle.ordinary):
            violations.append(("certificate verdict", prec, coords))
        for attr in ("v_u1", "v_u2"):
            if entry[attr] not in (None, getattr(oracle, attr)):
                violations.append(("certificate " + attr, prec, coords))
    decided = entries[low]["ordinary"]
    if decided is not None and entries[high]["ordinary"] != decided:
        violations.append(("certificate decision lost or flipped", coords))
    return violations


def run_probe(n=100, seed=93, p=5, low=4, high=12):
    """Compare certificate entries at two precisions with the exact oracle.

    Returns a dict with counts and a list of violations; an empty
    violation list means every decided verdict and every determined
    ratio valuation matched the oracle, and no decision was lost by
    raising the precision.
    """
    rng = random.Random(seed)
    model = twisted_equations(identity_twist())
    kept = 0
    decided = {low: 0, high: 0}
    violations = []
    attempts = 0
    while kept < n:
        attempts += 1
        if attempts > 100 * n:
            raise RuntimeError("point generation stalled")
        coords = random_rational_point(rng)
        oracle = ordinarity(sigmas(coords), p)
        if oracle is None:
            continue
        kept += 1
        entries = {
            prec: certificate_entry(model, coords, p, prec) for prec in (low, high)
        }
        for prec, entry in entries.items():
            decided[prec] += entry["ordinary"] is not None
        violations.extend(certificate_violations(entries, oracle, coords, low, high))
    return {
        "points": kept,
        "certificate_decided_low": decided[low],
        "certificate_decided_high": decided[high],
        "violations": violations,
    }
