import json
from collections import Counter
from fractions import Fraction
from functools import cache
from importlib import resources
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hmslines import galois, hensel, padics
from hmslines.errors import DegenerateLineError, HmsError
from hmslines.galois import frobenius_cycle_type, resolvent_cubic, solvability_report
from hmslines.lines import Line, quartic_of_line
from hmslines.quartics import BinaryQuartic
from hmslines.scalars import is_square_rational, primitive_integers
from hmslines.search import build_model, parse_config

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


def test_frobenius_cycle_type_refuses_2_and_the_primes_of_the_discriminant():
    q = Q(X4_MINUS_X_MINUS_1)  # discriminant -283, a prime
    with pytest.raises(HmsError, match="odd primes"):
        frobenius_cycle_type(q, 2)
    with pytest.raises(HmsError, match="283 divides the discriminant"):
        frobenius_cycle_type(q, 283)


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


# the cycle types with no root on P^1(F_p)
ROOT_FREE = {(4,), (2, 2)}
CHOSEN_PATIENCE = galois.SIEVE_PATIENCE


@cache
def _batch_quartics():
    """The quartics of the 128 lines of the seed-0 certify-batch sample,
    as `golden/verdicts.json` pins them: the config and primitive rows."""
    entries = json.loads((Path(__file__).parent / "golden" / "verdicts.json").read_text())
    models, quartics = {}, []
    for entry in entries:
        if "config" in entry:
            name = entry["config"]
            if name not in models:
                text = resources.files("hmslines").joinpath(f"configs/{name}").read_text()
                models[name] = build_model(parse_config(json.loads(text)))
            quartics.append(quartic_of_line(Line(entry["rows"]), models[name]))
    return quartics


def test_the_batch_quartics_get_the_zassenhaus_report():
    quartics = _batch_quartics()
    assert len(quartics) == 128
    for q in quartics:
        assert solvability_report(q) == _zassenhaus_report(q), q


@pytest.mark.parametrize("patience", [1, 2, 5, CHOSEN_PATIENCE, 24])
def test_the_sieve_gives_up_only_after_a_run_of_roots(monkeypatch, patience):
    # oracle: the whole sieve decides when its cycle types hold a (1,3)
    # and a root-free type; it gives up when the first `patience` types
    # all have a root, which every quartic with a linear factor over Q
    # does, and otherwise reads on.  At the chosen patience one S4
    # quartic of the sample gives up, and goes to Zassenhaus
    monkeypatch.setattr(galois, "SIEVE_PATIENCE", patience)
    outcomes = Counter()
    for q in _batch_quartics():
        types = [frobenius_cycle_type(q, p) for p in galois.SIEVE_PRIMES if q.disc % p]
        decides = (1, 3) in types and bool(ROOT_FREE & set(types))
        gives_up = len(types) >= patience and not ROOT_FREE & set(types[:patience])
        assert galois._sieve_decides(q) == (decides and not gives_up), q
        outcomes[solvability_report(q)["label"], decides, gives_up] += 1
    if patience == CHOSEN_PATIENCE:
        assert outcomes == {
            ("S4", True, False): 107,
            ("S4", True, True): 1,
            ("reducible-composite", False, True): 20,
        }


@st.composite
def _linear_times_a_cubic(draw):
    """(linear form, cubic form): a cubic, a linear times a quadratic, or
    the linear form itself times a quadratic."""
    def form(d):
        return draw(st.lists(st.integers(-9, 9), min_size=d + 1, max_size=d + 1))

    linear, shape = form(1), draw(st.sampled_from(["1+3", "1+1+2", "1^2+2"]))
    if shape == "1+3":
        return linear, form(3)
    return linear, _form_product(linear if shape == "1^2+2" else form(1), form(2))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_linear_times_a_cubic())
@example(([1, 1], [-1, -1, 0, 1]))
@example(([1, 1], [-2, -2, 1, 1]))  # (t + u)^2 (t^2 - 2 u^2)
def test_a_quartic_with_a_linear_factor_gets_the_zassenhaus_report(forms):
    # a root mod every good p: the sieve gives up after SIEVE_PATIENCE
    # primes, and Zassenhaus gives the report it would give alone; a
    # square factor has discriminant 0, refused on both paths
    linear, cubic = forms
    assume(any(linear) and any(cubic))
    q = Q(_form_product(linear, cubic))
    if q.disc == 0:
        for report in (solvability_report, _zassenhaus_report):
            with pytest.raises(DegenerateLineError):
                report(q)
        return
    primes = []
    cycle_type = galois.frobenius_cycle_type

    def recording(q, p):
        primes.append(p)
        return cycle_type(q, p)

    with patch.object(galois, "frobenius_cycle_type", recording):
        rep = solvability_report(q)
    sieved = [p for p in galois.SIEVE_PRIMES if q.disc % p]
    assert primes == sieved[: galois.SIEVE_PATIENCE]
    assert len(rep["factors"]) >= 2
    assert rep == _zassenhaus_report(q)
