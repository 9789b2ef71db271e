import json
import random
from fractions import Fraction
from functools import cache
from importlib import resources

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hmslines.errors import HmsError
from hmslines.mpoly import SparsePoly
from hmslines.padics import UnramifiedRing
from hmslines.scalars import primitive_integers, valuation_of_rational
from hmslines.search import build_model, parse_config
from hmslines.surface import (
    BUILTIN_TWISTS,
    CompiledForm,
    TwistData,
    char3_twist,
    identity_twist,
    ordinarity_from_valuations,
    rho0_twist,
    twist_by_name,
    twisted_equations,
)
from hmslines.verify import curve_D, modular_form_values, sigma_profile, u_ratios

from exact_oracles import evaluate, ordinarity, rref, sigma_exponents, sigmas
from precision_probe import certificate_entry, run_probe

F = Fraction

PROPERTY = settings(derandomize=True, max_examples=20, deadline=None)
UNITS = [tuple(int(i == j) for j in range(6)) for i in range(6)]
IDENTITY = [[F(int(i == j)) for j in range(6)] for i in range(6)]
NONZERO = st.fractions(-9, 9, max_denominator=9).filter(lambda x: x != 0)
ZERO = [[F(0)] * 6 for _ in range(6)]
W = SparsePoly(1, {(1,): 1})


def in_w(matrix, omega):
    """The entries a + b omega of two rational matrices as polynomials
    a + b w in one variable w."""
    return [
        [SparsePoly(1, {(0,): a, (1,): b}) for a, b in zip(r, s)]
        for r, s in zip(matrix, omega)
    ]


def reduced(c):
    """(a, b) with c = a + b w modulo w^3 = 1 and w^2 = -1 - w."""
    parts = [F(0)] * 3
    for (e,), x in c.terms.items():
        parts[e % 3] += x
    return parts[0] - parts[2], parts[1] - parts[2]


def model_sigmas(model, pt):
    """sigma_1..sigma_6 of the point s = M y of the model at y = pt: each
    scale times its form, evaluated by the oracle."""
    return tuple(model.scales[k] * evaluate(model.forms[k].terms, pt) for k in range(1, 7))


def test_identity_model_is_untwisted():
    model = twisted_equations(identity_twist())
    for k in range(1, 7):
        assert model.scales[k] == 1
        assert model.forms[k] == SparsePoly(6, sigma_exponents(k))
    assert model.q1 is model.forms[1]
    assert model.q2 is model.forms[2]
    assert model.q4 is model.forms[4]


def test_char3_model_known_forms():
    model = twisted_equations(twist_by_name("char3-x", 1, 1))
    # the first composed form is x4 + x5 on the nose
    assert model.scales[1] == 1
    assert model.q1.terms == {
        (0, 0, 0, 0, 1, 0): F(1),
        (0, 0, 0, 0, 0, 1): F(1),
    }
    # the second satisfies 3*sigma_2 = x4^2 + 3 x4 x5 + x5^2 - x0x1 - x2x3
    assert model.scales[2] == F(-1, 3)
    assert model.forms[2].terms == {
        (1, 1, 0, 0, 0, 0): F(1),
        (0, 0, 1, 1, 0, 0): F(1),
        (0, 0, 0, 0, 2, 0): F(-1),
        (0, 0, 0, 0, 1, 1): F(-3),
        (0, 0, 0, 0, 0, 2): F(-1),
    }


def test_model_forms_are_integral_and_primitive():
    # every cleared form should already be in canonical shape: integer
    # coefficients with content 1 and normalized sign
    for twist in (
        identity_twist(),
        rho0_twist(),
        twist_by_name("char3-x", 3, F(1, 2)),
    ):
        model = twisted_equations(twist)
        for k in range(1, 7):
            form = model.forms[k]
            assert all(c.denominator == 1 for c in form.terms.values())
            assert form.canonical() == (F(1), form)
            assert model.scales[k] != 0


def test_scales_recover_symmetric_functions():
    # scale * form must equal sigma_k composed with the twist, exactly:
    # the s-coordinates are polynomials in w, and sigma_k of them, the
    # oracle's monomials evaluated there, is reduced afterwards
    twist = twist_by_name("char3-x", 2, 3)
    model = twisted_equations(twist)
    rows = in_w(twist.matrix, twist.omega)
    rng = random.Random(11)
    for _ in range(4):
        pt = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(6)]
        s_coords = [sum(m * c for m, c in zip(row, pt)) for row in rows]
        via_forms = model_sigmas(model, pt)
        for k in range(1, 7):
            direct = evaluate(sigma_exponents(k), s_coords)
            assert reduced(direct) == (via_forms[k - 1], 0)


def test_rho0_seed_lies_on_quadrics_but_not_on_quartic():
    model = twisted_equations(rho0_twist())
    seed = (F(-1), F(0), F(1), F(-1), F(-1), F(1))
    assert evaluate(model.q1.terms, seed) == 0
    assert evaluate(model.q2.terms, seed) == 0
    assert evaluate(model.q4.terms, seed) != 0
    profile = model_sigmas(model, seed)
    assert profile == (0, 0, -6, 3, 6, -4)
    assert curve_D(profile) == 52


def test_contains_point_over_f25():
    # a known point of the untwisted model with coordinates in F_25
    # F_25 = F_5[w]/(w^2 + 3): w is a square root of -3
    field = UnramifiedRing(5, (3, 0, 1), 1)
    w = field.gen()
    one = field.one()
    point = (field.zero(), field.zero(), one + w, one - w, field.zero(), -(one + one))
    model = twisted_equations(identity_twist())
    assert all(evaluate(q.terms, point) == 0 for q in (model.q1, model.q2, model.q4))
    off = (F(1), F(0), F(0), F(0), F(0), F(0))
    assert not all(evaluate(q.terms, off) == 0 for q in (model.q1, model.q2, model.q4))


def test_compiled_form_refuses_what_is_not_integral():
    # x0^2 on t (2, 0) + u (0, 1) is 4 t^2; rows with a Fraction entry,
    # even an integral one, are refused rather than truncated
    square = SparsePoly(2, {(2, 0): 1})
    assert CompiledForm(square).restrict((2, 0), (0, 1)) == (0, 0, 4)
    for rows in (((F(1, 2), 0), (0, 1)), ((2, 0), (0, F(1)))):
        with pytest.raises(HmsError, match="rows must be integers"):
            CompiledForm(square).restrict(*rows)
    with pytest.raises(HmsError, match="int coefficients"):
        CompiledForm(SparsePoly(2, {(2, 0): F(1, 2)}))


def test_compiled_form_refuses_a_polynomial_that_is_not_homogeneous():
    # x0^2 - 3 x1 + 5 is no form, so it is not compiled at all
    with pytest.raises(HmsError, match="homogeneous"):
        CompiledForm(SparsePoly(2, {(2, 0): 1, (0, 1): -3, (0, 0): 5}))
    # a form is, and its value is exact at ints and at Fractions
    form = CompiledForm(SparsePoly(2, {(2, 0): 1, (1, 1): -3}))
    assert form.degree == 2
    assert form.value((3, 1)) == 0
    assert form.value((F(1, 2), F(2, 3))) == F(-3, 4)


def test_rationality_validator_rejects_unbalanced_matrix():
    omega = [list(row) for row in ZERO]
    omega[0][0] = 1
    with pytest.raises(HmsError, match="not conjugation-invariant"):
        twisted_equations(TwistData(IDENTITY, omega))


def rank_over_q_omega(twist):
    """The rank over Q of M = A + omega B acting on Q(omega)^6 = Q^12:
    x + omega y -> (A x - B y) + omega (B x + (A - B) y)."""
    A, B = twist.matrix, twist.omega
    real = [a + [-x for x in b] for a, b in zip(A, B)]
    real += [b + [x - y for x, y in zip(a, b)] for a, b in zip(A, B)]
    return len(rref(real)[1])


def test_builtin_twists_are_invertible():
    # no twist is checked when a model is built: the identity and rho0
    # are fixed, and char3 is a fixed averaging matrix times
    # diag(l1, 1/l1, l2, 1/l2, 1, 1), invertible for every nonzero l
    lambdas = (1, -1, 3, -3, F(1, 3), F(5, 7), 81)
    twists = [identity_twist(), rho0_twist()]
    twists += [char3_twist(l1, l2) for l1 in lambdas for l2 in lambdas]
    assert [rank_over_q_omega(twist) for twist in twists] == [12] * len(twists)
    # the rank is over Q(omega), not that of A and B: row 1 of this M is
    # omega times row 0 = e0 + omega e1, so M has a kernel line over
    # Q(omega), a plane over Q, though A and B are each invertible
    A = [list(row) for row in IDENTITY]
    A[1][1] = F(-1)
    B = [list(row) for row in IDENTITY]
    B[0] = [F(0), F(1), F(0), F(0), F(0), F(0)]
    B[1] = [F(1), F(-1), F(0), F(0), F(0), F(0)]
    assert len(rref(A)[1]) == len(rref(B)[1]) == 6
    assert rank_over_q_omega(TwistData(A, B)) == 10


def substituted_model(twist):
    """(forms, scales) of the twisted model, each sigma_k composed through
    SparsePoly.substitute over polynomials in w, reduced by w^3 = 1 and
    w^2 = -1 - w, checked to have no omega part and canonicalized one at
    a time: the reference for `twisted_equations`."""
    rows = in_w(twist.matrix, twist.omega)
    images = [SparsePoly(6, dict(zip(UNITS, row))) for row in rows]
    forms, scales = {}, {}
    for k in range(1, 7):
        raw = SparsePoly(6, sigma_exponents(k)).substitute(images)
        pairs = {e: reduced(c) for e, c in raw.terms.items()}
        if any(b for _, b in pairs.values()):
            raise ValueError(f"sigma_{k} is not conjugation-invariant")
        rational = SparsePoly(6, {e: a for e, (a, _) in pairs.items()})
        scales[k], forms[k] = rational.canonical()
    return forms, scales


@st.composite
def invertible_rational_matrices(draw):
    """An invertible 6x6 rational matrix: a scaled permutation plus up to
    three more entries, sparse as the built-in twists are."""
    rows = [[F(0)] * 6 for _ in range(6)]
    for i, j in enumerate(draw(st.permutations(range(6)))):
        rows[i][j] = draw(NONZERO)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, 5)), draw(st.integers(0, 5))
        rows[i][j] = draw(NONZERO)
    assume(len(rref(rows)[1]) == 6)
    return rows


@PROPERTY
@given(
    st.sampled_from(BUILTIN_TWISTS),
    NONZERO,
    NONZERO,
    st.one_of(st.just(IDENTITY), invertible_rational_matrices()),
    st.sampled_from((False, False, False, True)),
)
@example("identity", F(1), F(1), IDENTITY, False)
@example("rho0-archimedean", F(1), F(1), IDENTITY, False)
@example("char3-x", F(3), F(-1, 2), IDENTITY, False)
@example("char3-x", F(1), F(1), IDENTITY, True)
def test_twisted_equations_match_substitution(name, lambda1, lambda2, A, unbalance):
    # a built-in twist times a rational matrix is rational again; an
    # omega added to one entry (almost always) breaks that, and both
    # paths must then refuse the model
    base = twist_by_name(name, lambda1, lambda2)
    factor = in_w(A, ZERO)
    if unbalance:
        factor[0][0] = factor[0][0] + W
    product = [
        [reduced(sum(m * a for m, a in zip(row, col))) for col in zip(*factor)]
        for row in in_w(base.matrix, base.omega)
    ]
    twist = TwistData(
        [[a for a, _ in row] for row in product], [[b for _, b in row] for row in product]
    )
    try:
        forms, scales = substituted_model(twist)
    except ValueError:
        with pytest.raises(HmsError, match="not conjugation-invariant"):
            twisted_equations(twist)
        return
    model = twisted_equations(twist)
    assert model.scales == scales
    assert model.forms == forms
    assert all(type(c) is int for f in model.forms.values() for c in f.terms.values())


def test_build_model_substitutes_nothing(monkeypatch):
    # the models are composed on int pairs: no polynomial substitution
    # and no polynomial product
    calls = []
    for name in ("substitute", "__mul__"):
        method = getattr(SparsePoly, name)

        def counting(self, other, name=name, method=method):
            calls.append(name)
            return method(self, other)

        monkeypatch.setattr(SparsePoly, name, counting)
    for config in ("char3-demo.json", "rho0-demo.json"):
        path = resources.files("hmslines").joinpath("configs", config)
        build_model(parse_config(json.loads(path.read_text())))
    assert calls == []


def test_twist_constructors_reject_bad_input():
    with pytest.raises(HmsError):
        twist_by_name("unknown-twist")
    with pytest.raises(HmsError):
        twist_by_name("char3-x", 0, 1)
    with pytest.raises(HmsError):
        TwistData([[F(1)] * 6] * 3)


def test_sigma_profile_known_values():
    # roots of (x^2 - 1)^3: sigma_2 = -3, sigma_4 = 3, sigma_6 = -1
    assert sigma_profile((1, 1, 1, -1, -1, -1)) == (0, -3, 0, 3, 0, -1)
    assert sigma_profile((1, -1, 0, 0, 0, 0)) == (0, -1, 0, 0, 0, 0)
    # the recurrence against the oracle's sums over k-subsets
    rng = random.Random(5)
    for _ in range(10):
        pt = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)]
        assert sigma_profile(pt) == sigmas(pt)


def test_modular_form_values_plug_in():
    # phi2 = -3, chi6 = 1 and chi10 = -1/3
    assert modular_form_values((0, 0, F(1), 0, F(1), F(0))) == (-27, 729)


def test_ordinarity_valuation_patterns():
    # all three reference patterns at p = 5, built from profiles with
    # prescribed valuations of sigma_3, sigma_5 and D, from the exact
    # oracle and from the valuation-level rule
    flat = ordinarity((0, 0, F(1), 0, F(1), F(0)), 5)
    assert (flat.v_u1, flat.v_u2, flat.ordinary) == (0, 0, True)
    assert ordinarity_from_valuations(0, 0, 0) == (0, 0, True)
    # v(sigma_5) = 1 and v(D) = 2 push v(u1) to 5*2 - 6*1 = 4 > 0
    steep_profile = (0, 0, F(1), 0, F(5), F(-6))
    assert curve_D(steep_profile) == 25
    steep = ordinarity(steep_profile, 5)
    assert (steep.v_u1, steep.v_u2, steep.ordinary) == (4, 3, False)
    assert ordinarity_from_valuations(0, 1, 2) == (4, 3, False)
    # v(sigma_5) = v(D) = 1 stays just inside: v(u1) = -1, v(u2) = 0
    edge_profile = (0, 0, F(1), 0, F(5), F(-1))
    assert curve_D(edge_profile) == 5
    edge = ordinarity(edge_profile, 5)
    assert (edge.v_u1, edge.v_u2, edge.ordinary) == (-1, 0, True)
    assert ordinarity_from_valuations(0, 1, 1) == (-1, 0, True)
    # v(sigma_3) = 1 enters v(u2) with a minus sign: v(u2) = -1
    odd = ordinarity((0, 0, F(5), 0, F(1), F(6)), 5)
    assert (odd.v_u1, odd.v_u2, odd.ordinary) == (0, -1, True)
    assert ordinarity_from_valuations(1, 0, 0) == (0, -1, True)
    # an undetermined valuation (None) gives no verdict
    assert ordinarity_from_valuations(None, 0, 0) == (0, None, None)
    assert ordinarity_from_valuations(0, None, 0) == (None, None, None)
    assert ordinarity_from_valuations(0, 0, None) == (None, None, None)
    assert ordinarity_from_valuations(None, None, None) == (None, None, None)


def test_ordinarity_point_examples():
    model = twisted_equations(identity_twist())
    cases = [
        ((1, 2, 3, 4, 6, 7), (0, -2, True)),
        ((1, 1, 2, 3, 4, 6), (0, -1, True)),
        ((1, 2, 3, 4, 5, 6), (5, 2, False)),
        ((2, 3, 4, 6, 7, 8), (-6, -4, True)),
    ]
    for pt, expected in cases:
        exact = ordinarity(sigmas(pt), 5)
        assert (exact.v_u1, exact.v_u2, exact.ordinary) == expected
        entry = certificate_entry(model, pt, 5, 12)
        assert (entry["v_u1"], entry["v_u2"], entry["ordinary"]) == expected


def test_ordinarity_padic_matches_exact():
    exact = ordinarity(sigmas((1, 2, 3, 4, 6, 7)), 5)
    model = twisted_equations(identity_twist())
    entry = certificate_entry(model, (1, 2, 3, 4, 6, 7), 5, 8)
    assert entry["ordinary"] is exact.ordinary is True
    assert entry["v_u1"] == exact.v_u1 == 0
    assert entry["v_u2"] == exact.v_u2 == -2


def test_ordinarity_ratios_scale_invariant():
    # the package's ratios, against the oracle's at the unscaled point
    base = ordinarity(sigmas((1, 2, 3, 4, 6, 7)), 5)
    rng = random.Random(20260816)
    for _ in range(20):
        mu = F(rng.randint(1, 40), rng.randint(1, 40))
        if rng.random() < 0.5:
            mu = -mu
        scaled = sigma_profile([mu * c for c in (1, 2, 3, 4, 6, 7)])
        assert u_ratios(scaled) == (base.u1, base.u2)


def test_ordinarity_bad_locus():
    # sigma_5 = 0: the ratios are undefined, the oracle has no verdict,
    # and the certificate path, which sees v(sigma_5) undetermined, none
    point = (1, 0, 0, 0, 0, 0)
    assert ordinarity(sigmas(point), 5) is None
    model = twisted_equations(identity_twist())
    entry = certificate_entry(model, point, 5, 12)
    assert entry["v_sigma5"] is None
    assert entry["ordinary"] is None


def test_ordinarity_exact_zero_d_and_undetermined_d():
    # D = 2^2 - 4 * 1 = 0: exactly on V, so never ordinary
    on_v = ordinarity((0, 0, F(2), 0, F(1), F(1)), 5)
    assert (on_v.v_u1, on_v.v_u2, on_v.ordinary) == (None, None, False)
    # a point with D = 0 exactly and sigma_3, sigma_5 nonzero: the exact
    # oracle says "not ordinary"; the certificate path, which only knows
    # the point mod 5^K, leaves D undetermined and gives no verdict
    point = (1, 1, 1, 1, -2, -2)
    exact = ordinarity(sigmas(point), 5)
    assert (exact.v_u1, exact.v_u2, exact.ordinary) == (None, None, False)
    model = twisted_equations(identity_twist())
    for prec in (6, 30):
        entry = certificate_entry(model, point, 5, prec)
        assert entry["v_D"] is None
        assert (entry["v_u1"], entry["v_u2"], entry["ordinary"]) == (None, None, None)


def test_curve_v_avoidance():
    # the exact oracle: the point avoids V when D != 0
    assert curve_D((0, 0, F(2), 0, F(1), F(1))) == 0
    assert curve_D((0, 0, F(1), 0, F(1), F(1))) == -3
    assert curve_D(sigma_profile((1, 1, 0, 0, 0, 0))) == 0
    assert curve_D(sigma_profile((1, 2, 3, 4, 6, 7))) != 0
    # the certificate path certifies avoidance once v(D) is determined
    model = twisted_equations(identity_twist())
    entry = certificate_entry(model, (1, 2, 3, 4, 6, 7), 5, 8)
    assert entry["curve_V_avoided"] is True


def test_curve_v_avoidance_padic_indeterminacy():
    # D of (1, 1, 0, 0, 0, 0) vanishes exactly, so no finite precision
    # can certify avoidance: the certificate says null, never true
    model = twisted_equations(identity_twist())
    for prec in (6, 30):
        entry = certificate_entry(model, (1, 1, 0, 0, 0, 0), 5, prec)
        assert entry["curve_V_avoided"] is None


def test_ordinarity_precision_monotonicity():
    result = run_probe(n=100, seed=93, p=5, low=4, high=12)
    assert result["points"] == 100
    assert result["violations"] == []
    # the certificate path reads valuations of integer representatives
    # in absolute precision: it decides fewer points at low precision,
    # never wrongly, and every one of them at 5^12
    assert result["certificate_decided_low"] == 37
    assert result["certificate_decided_high"] == 100


@cache
def _model(name, lam):
    return twisted_equations(twist_by_name(name, lam, lam))


def _exact_valuation(value, p):
    return None if value == 0 else valuation_of_rational(value, p)


@PROPERTY
@given(
    st.sampled_from(
        (("identity", F(1)), ("rho0-archimedean", F(1)), ("char3-x", F(1)),
         ("char3-x", F(3)), ("char3-x", F(5, 9)))
    ),
    st.lists(
        st.tuples(st.integers(-30, 30), st.integers(0, 3)), min_size=6, max_size=6
    ),
    st.sampled_from((3, 5)),
    st.integers(1, 10),
)
@example(("identity", F(1)), [(1, 0), (2, 0), (2, 0), (2, 0), (2, 0), (4, 0)], 5, 2)
@example(("char3-x", F(3)), [(1, 0), (2, 0), (3, 0), (4, 0), (6, 0), (7, 0)], 3, 4)
def test_point_invariants_agree_with_exact_valuations(twist, terms, p, K):
    # oracle: exact Fraction valuations at the primitive integer point
    # that the certificate path sees mod p^K, in a degree-1 ring
    model = _model(*twist)
    assume(any(n for n, _ in terms))
    point = primitive_integers([n * p**k for n, k in terms])
    profile = model_sigmas(model, point)
    exact = ordinarity(profile, p)
    assume(exact is not None)
    entry = certificate_entry(model, point, p, K)
    assert (entry["kind"], entry["residue_degree"], entry["precision"]) == (
        "rational", 1, K,
    )
    # v(sigma_k) is determined exactly when the integral form's value
    # is not 0 mod p^K, and then it is the exact valuation
    for k, key in ((3, "v_sigma3"), (5, "v_sigma5")):
        v_form = _exact_valuation(evaluate(model.forms[k].terms, point), p)
        determined = v_form is not None and v_form < K
        assert entry[key] == (
            valuation_of_rational(profile[k - 1], p) if determined else None
        )
    assert entry["v_D"] in (None, _exact_valuation(curve_D(profile), p))
    assert entry["v_u1"] in (None, exact.v_u1)
    assert entry["v_u2"] in (None, exact.v_u2)
    assert entry["ordinary"] in (None, exact.ordinary)
