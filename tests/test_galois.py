from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hmslines import galois, hensel, padics
from hmslines.errors import HmsError
from hmslines.galois import frobenius_cycle_type, resolvent_cubic, solvability_report
from hmslines.quartics import BinaryQuartic
from hmslines.scalars import is_square_rational, primitive_integers

from exact_oracles import ALLOWED_TYPES, FROBENIUS_PRIMES, compose_binary, cycle_type
from galois_battery import WITNESS_TYPES, battery, good_primes

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)

X4_MINUS_X_MINUS_1 = (-1, -1, 0, 0, 1)
# an S4 quartic of the certify-batch benchmark sample at seed 0
CERTIFY_BATCH_S4 = (
    "-13216161/2088025",
    "-134421834/10440125",
    "330592437/10440125",
    "-261405102/10440125",
    "58526679/10440125",
)


def Q(coeffs):
    """The quartic of rationals (ints, Fractions or "p/q" strings),
    denominators cleared."""
    return BinaryQuartic(primitive_integers(coeffs))


def _zassenhaus_report(q):
    """The Galois section with the Frobenius sieve switched off."""
    with patch.object(galois, "SIEVE_PRIMES", ()):
        return galois.solvability_report(q)


def test_battery_labels_match_references():
    members = list(battery())
    assert len(members) == 40
    for q, label in members:
        rep = solvability_report(q)
        assert rep["label"] == label, (list(q.coeffs), rep["label"], label)
        # transitive: q is its own one irreducible factor
        assert len(rep["factors"]) == 1


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


def test_frobenius_type_matches_the_brute_force_count():
    # the package reads a type off the roots on P^1(F_p) and a Legendre
    # symbol; the oracle counts the roots on P^1(F_p) and P^1(F_p^2)
    for q, _ in battery():
        ics = q.coeffs
        for p in FROBENIUS_PRIMES:
            if q.disc % p:
                assert frobenius_cycle_type(q, p) == cycle_type(ics, p), (ics, p)


def test_group_orders():
    orders = {"S4": 24, "A4": 12, "D4": 8, "C4": 4, "V4": 4}
    for base_index in (0, 1, 2, 4, 6):
        q, label = list(battery())[base_index * 5]
        assert solvability_report(q)["factors"][0]["order"] == orders[label]


def test_resolvent_cubic_of_biquadratic():
    # x^4 - 10x^2 + 1: resolvent is y^3 + 10y^2 - 4y - 40, which splits
    # as (y + 10)(y - 2)(y + 2); three rational roots mean group V4
    R = resolvent_cubic(Fraction(0), Fraction(-10), Fraction(0), Fraction(1))
    assert R == [Fraction(-40), Fraction(-4), Fraction(10), 1]
    for root in (-10, 2, -2):
        assert sum(c * root**i for i, c in enumerate(R)) == 0
    assert solvability_report(Q([1, 0, -10, 0, 1]))["label"] == "V4"


def test_reducible_quartics_get_composite_labels():
    # (t^2 - 2 u^2)(t^2 - 3 u^2): splitting field Q(v2, v3), order 4
    rep = solvability_report(Q([6, 0, -5, 0, 1]))
    assert rep["label"] == "reducible-composite"
    assert rep["splitting_degree_bound"] == 4
    assert rep["solvable"]
    assert rep["factors"] == [{"degree": 2, "label": "C2", "order": 2}] * 2


def test_solvability_report_on_battery_members():
    # every quartic group is solvable; the report must say so and bound
    # the splitting degree by the group order
    for idx, (q, label) in enumerate(battery()):
        if idx % 10 != 0:
            continue
        rep = solvability_report(q)
        assert rep["solvable"]
        assert rep["splitting_degree_bound"] == rep["factors"][0]["order"]


def test_degenerate_quartic_rejected():
    q = Q([1, 2, 1, 0, 0])  # (t + u)^2 u^2 has discriminant zero
    with pytest.raises(HmsError):
        solvability_report(q)


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


@PROPERTY
@given(
    coeffs=st.lists(st.integers(-40, 40), min_size=5, max_size=5),
    p=st.sampled_from([3, 5, 7, 11, 13, 17, 19]),
    at_infinity=st.booleans(),
)
@example(coeffs=[1, 2, 0, 1, 1], p=3, at_infinity=True)
@example(coeffs=[2, 0, -1, 5, 4], p=7, at_infinity=True)
def test_cycle_type_is_the_factor_pattern_mod_p(coeffs, p, at_infinity):
    """The root-count and Legendre rule against the factor degrees of q
    mod p, one [1:0] root counted as a linear factor."""
    if at_infinity:
        coeffs[4] *= p
    assume(any(coeffs))
    q = Q(coeffs)
    assume(q.disc % p != 0)
    affine = padics.pmod(q.coeffs, p)
    monic = padics.pscale(affine, pow(affine[-1], -1, p), p)
    degrees = [padics.deg(g) for g, _ in hensel.factor_monic_mod_p(monic, p)]
    pattern = tuple(sorted([1] * (4 - padics.deg(affine)) + degrees))
    assert frobenius_cycle_type(q, p) == pattern


BATTERY = [q for q, _ in battery()]


@PROPERTY
@given(
    q=st.sampled_from(BATTERY),
    k=st.integers(-6, 6),
    m=st.integers(-4, 4).filter(bool),
    sign=st.sampled_from([1, -1]),
)
def test_sieve_agrees_with_zassenhaus_on_the_battery(q, k, m, sign):
    """t -> t + k u, u -> m u and a sign keep the splitting field; the
    sieve and its fallback give the report and group the factorization
    gives."""
    moved_coeffs = compose_binary(list(q.coeffs), ((1, k * m), (0, m)))
    moved = Q([sign * c for c in moved_coeffs])
    disc = moved.discriminant()
    reference = galois._galois_group(disc, hensel.factor_binary_quartic(moved))
    rep = solvability_report(moved)
    assert rep["label"] == reference
    assert rep["disc_is_square"] == is_square_rational(disc)
    assert rep == _zassenhaus_report(moved)


def _form_product(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


@PROPERTY
@given(
    st.sampled_from([1, 2]).flatmap(
        lambda d: st.tuples(
            st.lists(st.integers(-9, 9), min_size=d + 1, max_size=d + 1),
            st.lists(st.integers(-9, 9), min_size=5 - d, max_size=5 - d),
        )
    )
)
@example(([1, 0], [1, -1, 0, 2]))  # u times a cubic: a root at [1:0]
@example(([-2, 0, 1], [-3, 0, 1]))
@example(([1, 1], [-1, -1, 0, 1]))
def test_sieve_never_decides_a_product(forms):
    f, g = forms
    assume(any(f) and any(g))
    q = Q(_form_product(f, g))
    assume(q.discriminant() != 0)
    calls = []
    factor = galois.factor_binary_quartic

    def counting(q):
        calls.append(q)
        return factor(q)

    with patch.object(galois, "factor_binary_quartic", counting):
        rep = solvability_report(q)
    assert len(calls) == 1
    assert len(rep["factors"]) >= 2
    assert rep == _zassenhaus_report(q)


@pytest.mark.parametrize(
    "coeffs, label",
    [(X4_MINUS_X_MINUS_1, "S4"), (CERTIFY_BATCH_S4, "S4"), ((12, 8, 0, 0, 1), "A4")],
)
def test_sieve_decides_without_factoring(monkeypatch, coeffs, label):
    calls = []

    def counting(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)

        return wrapped

    for module, name in (
        (hensel, "factor_squarefree_int"),
        (galois, "factor_squarefree_int"),
        (hensel, "hensel_pair_lift"),
    ):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    q = Q(coeffs)
    rep = solvability_report(q)
    assert calls == []
    assert rep["label"] == label
    assert rep == _zassenhaus_report(q)
    assert len(calls) > 0
