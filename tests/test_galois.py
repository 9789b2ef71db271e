from fractions import Fraction

import pytest

from hmslines import galois
from hmslines.errors import HmsError
from hmslines.galois import (
    frobenius_cycle_type,
    quartic_galois_group,
    resolvent_cubic,
    solvability_report,
)
from hmslines.quartics import BinaryQuartic

from galois_battery import ALLOWED_TYPES, WITNESS_TYPES, battery, good_primes


def Q(coeffs):
    return BinaryQuartic([Fraction(c) for c in coeffs])


def test_battery_labels_match_references():
    members = list(battery())
    assert len(members) == 40
    for q, label in members:
        g = quartic_galois_group(q)
        assert g.label == label, (list(q.coeffs), g.label, label)
        assert g.transitive


def test_battery_frobenius_consistency():
    """Factorization types over 50 good primes must be cycle types of
    the claimed group, and the group's witness type must appear."""
    for q, label in battery():
        allowed = ALLOWED_TYPES[label]
        seen = set()
        for p in good_primes(q, 50):
            t = frobenius_cycle_type(q, p)
            assert t in allowed, (list(q.coeffs), label, p, t)
            seen.add(t)
        assert WITNESS_TYPES[label] in seen, (list(q.coeffs), label, seen)


def test_group_orders():
    orders = {"S4": 24, "A4": 12, "D4": 8, "C4": 4, "V4": 4}
    for base_index in (0, 1, 2, 4, 6):
        q, label = list(battery())[base_index * 5]
        g = quartic_galois_group(q)
        assert g.order == orders[label]


def test_resolvent_cubic_of_biquadratic():
    # x^4 - 10x^2 + 1: resolvent is y^3 + 10y^2 - 4y - 40, which splits
    # as (y + 10)(y - 2)(y + 2); three rational roots mean group V4
    R = resolvent_cubic(Fraction(0), Fraction(-10), Fraction(0), Fraction(1))
    assert R == [Fraction(-40), Fraction(-4), Fraction(10), 1]
    for root in (-10, 2, -2):
        assert sum(c * root**i for i, c in enumerate(R)) == 0
    g = quartic_galois_group(Q([1, 0, -10, 0, 1]))
    assert g.label == "V4"


def test_reducible_quartics_get_composite_labels():
    # (t^2 - 2 u^2)(t^2 - 3 u^2): splitting field Q(v2, v3), order 4
    q = Q([6, 0, -5, 0, 1])
    g = quartic_galois_group(q)
    assert g.label == "reducible-composite"
    assert not g.transitive
    assert g.order == 4
    rep = solvability_report(q)
    assert rep.solvable
    assert sorted(len(c) - 1 for c, _, _ in rep.factors) == [2, 2]


def test_solvability_report_on_battery_members():
    # every quartic group is solvable; the report must say so and bound
    # the splitting degree by the group order
    for idx, (q, label) in enumerate(battery()):
        if idx % 10 != 0:
            continue
        rep = solvability_report(q)
        assert rep.solvable
        g = quartic_galois_group(q)
        assert rep.splitting_degree_bound == g.order


def test_degenerate_quartic_rejected():
    q = Q([1, 2, 1, 0, 0])  # (t + u)^2 u^2 has discriminant zero
    with pytest.raises(HmsError):
        quartic_galois_group(q)


@pytest.mark.parametrize(
    "coeffs",
    [
        [-2, 0, 0, 0, 1],  # t^4 - 2 u^4, irreducible with group D4
        [6, 0, -5, 0, 1],  # (t^2 - 2 u^2)(t^2 - 3 u^2)
    ],
)
def test_solvability_report_factors_once(monkeypatch, coeffs):
    calls = []
    factor = galois.factor_binary_quartic

    def counting(q):
        calls.append(q)
        return factor(q)

    monkeypatch.setattr(galois, "factor_binary_quartic", counting)
    galois.solvability_report(Q(coeffs))
    assert len(calls) == 1
