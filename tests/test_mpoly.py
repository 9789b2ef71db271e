from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from hmslines.errors import HmsError
from hmslines.mpoly import SparsePoly, restrict_to_span
from hmslines.scalars import integer_numerators
from hmslines.surface import CompiledForm, restrict_forms

from exact_oracles import evaluate, sigma_exponents, sigmas

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)
# small and huge numerators and denominators, and exact zeros
ENTRIES = st.one_of(
    st.fractions(-(10**6), 10**6, max_denominator=10**6),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
    st.just(Fraction(0)),
)


@st.composite
def integral_forms(draw, max_degree=4):
    """A homogeneous form of degree 1 to max_degree in 6 variables with
    int coefficients, as the forms of a model have."""
    degree = draw(st.integers(1, max_degree))
    variables = st.lists(st.integers(0, 5), min_size=degree, max_size=degree)
    monomials = draw(st.lists(variables, min_size=1, max_size=12))
    terms = {}
    for variables in monomials:
        counts = Counter(variables)
        exp = tuple(counts[i] for i in range(6))
        terms[exp] = draw(st.integers(-(10**6), 10**6))
    return SparsePoly(6, terms)


def simplex_points(k, d):
    """The points of N^k with coordinate sum d.  A form of degree d in k
    variables is determined by its values there; for k = 2 they are
    d + 1 pairwise non-proportional points (t, u)."""
    if k == 1:
        return [(d,)]
    return [(i,) + rest for i in range(d + 1) for rest in simplex_points(k - 1, d - i)]


def form_degree(f):
    """The one degree of the terms of a nonzero form, None for zero."""
    degrees = {sum(exp) for exp in f.terms}
    assert len(degrees) <= 1
    return degrees.pop() if degrees else None


def assert_restricts(f, rows, restricted):
    """restricted is f on the span of rows: a form of the degree of f
    whose value at each point y of `simplex_points` is f at
    sum_j y_j rows[j]."""
    d = form_degree(f)
    assert all(sum(exp) == d for exp in restricted.terms)
    for y in simplex_points(len(rows), d or 0):
        point = [sum(c * row[i] for c, row in zip(y, rows)) for i in range(f.nvars)]
        assert evaluate(restricted.terms, y) == evaluate(f.terms, point)


def typed_terms(f):
    return {exp: (c, type(c)) for exp, c in f.terms.items()}


def P(nvars, terms):
    return SparsePoly(nvars, {tuple(e): Fraction(c) for e, c in terms.items()})


def test_ring_operations_and_zero_cleanup():
    x = P(2, {(1, 0): 1})
    y = P(2, {(0, 1): 1})
    f = (x + y) * (x - y)
    assert f == P(2, {(2, 0): 1, (0, 2): -1})
    assert (f - f).is_zero
    assert (x * 0).is_zero
    # a scalar compares as the constant polynomial
    assert P(2, {(0, 0): 3}) == 3 and not x == 3


def test_arity_mismatches_are_refused():
    x = P(2, {(1, 0): 1})
    with pytest.raises(HmsError, match="exponent arity"):
        P(2, {(1, 0, 0): 1})
    with pytest.raises(HmsError, match="nvars mismatch"):
        x + P(3, {(1, 0, 0): 1})
    with pytest.raises(HmsError, match="substitution arity"):
        x.substitute([x])
    with pytest.raises(HmsError, match="basis arity"):
        restrict_to_span(x, [(1, 0, 0)])


def test_evaluate_matches_direct_substitution():
    # the tests' evaluation oracle, on the terms of a polynomial
    f = P(3, {(2, 0, 0): 3, (1, 1, 0): -2, (0, 0, 3): 5, (0, 0, 0): 7})
    a, b, c = Fraction(2), Fraction(-1, 2), Fraction(1, 3)
    want = 3 * a**2 - 2 * a * b + 5 * c**3 + 7
    assert evaluate(f.terms, [a, b, c]) == want
    with pytest.raises(ValueError):
        evaluate(f.terms, [a, b])


def test_substitute_maps_each_variable():
    f = P(2, {(2, 1): 1})  # x^2 y
    # x -> x, y -> 2x
    g = f.substitute([P(2, {(1, 0): 1}), P(2, {(1, 0): 2})])
    assert g == P(2, {(3, 0): 2})


def test_canonical_scale_times_form_recovers_poly():
    f = P(2, {(2, 0): Fraction(4, 6), (1, 1): Fraction(-2, 3)})
    scale, form = f.canonical()
    assert form * scale == f
    # int coefficients of content one, leading coefficient positive
    coeffs = list(form.terms.values())
    assert all(type(c) is int for c in coeffs)
    assert gcd(*coeffs) == 1
    lead = form.sorted_terms()[0][1]
    assert lead > 0


def test_elementary_symmetric_against_expansion():
    # product (z - 1)(z - 2)(z - 3) = z^3 - 6z^2 + 11z - 6
    # the oracle's monomials of sigma_k, evaluated as polynomials, and
    # its sums over k-subsets
    vals = [Fraction(1), Fraction(2), Fraction(3)]
    forms = [SparsePoly(3, sigma_exponents(k, 3)) for k in (1, 2, 3)]
    values = tuple(evaluate(form.terms, vals) for form in forms)
    assert values == sigmas(vals) == (6, 11, 6)


def test_restrict_to_span_on_a_quadric():
    # x0 x1 restricted to the span of (1, 0) directions:
    # point = t (1, 1) + u (2, -1) gives (t + 2u)(t - u)
    f = P(2, {(1, 1): 1})
    r = restrict_to_span(f, ([Fraction(1), Fraction(1)], [Fraction(2), Fraction(-1)]))
    assert r == P(2, {(2, 0): 1, (1, 1): 1, (0, 2): -2})


def test_compose_linear_permutation_and_identity():
    # f(M x) through substitute: variable i goes to sum_j M[i][j] x_j
    f = P(2, {(2, 0): 1, (0, 1): 3})
    x, y = P(2, {(1, 0): 1}), P(2, {(0, 1): 1})
    assert f.substitute([x, y]) == f
    assert f.substitute([y, x]) == P(2, {(0, 2): 1, (1, 0): 3})


def test_poly_valued_coefficients_supported():
    # coefficients may themselves be polynomials in other variables
    a = P(1, {(1,): 1})
    f = SparsePoly(2, {(1, 0): a, (0, 1): a * a})
    value = evaluate(f.terms, [Fraction(2), Fraction(3)])
    assert value == a * 2 + a * a * 3


@pytest.mark.parametrize("sign", [1, -1])
def test_kronecker_restriction_at_its_tight_bound(sign):
    # +-3 x0^4 on t e0 + u 0: norm 3 and reach 1 bound |c_4| by 3, which
    # the one coefficient attains; b = bit_length(3) + 1 = 3 keeps it
    # inside (-4, 4), where one bit fewer would read 3 as -1 and -3 as 1
    form = CompiledForm(SparsePoly(6, {(4, 0, 0, 0, 0, 0): 3 * sign}))
    e0, zero = (1, 0, 0, 0, 0, 0), (0,) * 6
    assert form.restrict(e0, zero) == (0, 0, 0, 0, 3 * sign)
    assert form.restrict(zero, e0) == (3 * sign, 0, 0, 0, 0)
    assert form.restrict(zero, zero) == (0,) * 5


@PROPERTY
@given(integral_forms(), st.integers(2, 3), st.data())
def test_restriction_kernel_matches_substitute(f, k, data):
    rows = [data.draw(st.lists(ENTRIES, min_size=6, max_size=6)) for _ in range(k)]
    restricted = restrict_to_span(f, rows)
    assert_restricts(f, rows, restricted)
    assert all(type(c) is Fraction for c in restricted.terms.values())
    if k == 2:
        # the compiled integer kernel, on the rows scaled to integers
        ints = [integer_numerators(row)[1] for row in rows]
        coeffs = CompiledForm(f).restrict(*ints)
        got = {(i, len(coeffs) - 1 - i): (c, int) for i, c in enumerate(coeffs) if c}
        assert got == typed_terms(restrict_to_span(f, ints))


# int rows as lines hand them on: small, negative, up to 2^200, or zero
INT_ROWS = st.one_of(
    st.lists(
        st.one_of(st.integers(-3, 3), st.integers(-(2**200), 2**200)),
        min_size=6,
        max_size=6,
    ),
    st.just([0] * 6),
)


@PROPERTY
@given(integral_forms(max_degree=6), integral_forms(max_degree=6), INT_ROWS, INT_ROWS)
def test_kronecker_restriction_matches_restrict_to_span(f, g, P, Q):
    # one evaluation at x = (P << b) + Q, read as signed base-2^b
    # digits, against the symbolic restriction; forms of two degrees
    # restricted together, from one x with the larger b, in either
    # order, read what each reads alone
    assume(not f.is_zero and not g.is_zero and form_degree(f) != form_degree(g))
    coeffs = CompiledForm(f).restrict(P, Q)
    assert len(coeffs) == form_degree(f) + 1
    got = {(i, len(coeffs) - 1 - i): (c, int) for i, c in enumerate(coeffs) if c}
    assert got == typed_terms(restrict_to_span(f, [P, Q]))
    alone = [coeffs, CompiledForm(g).restrict(P, Q)]
    pair = [CompiledForm(f), CompiledForm(g)]
    assert restrict_forms(pair, P, Q) == alone
    assert restrict_forms(pair[::-1], P, Q) == alone[::-1]


def test_restriction_kernel_keeps_polynomial_coefficients():
    # rows over Q[a]: (x0 + x1)^2 on t (1, a) + u (a, 0)
    a = P(1, {(1,): 1})
    one = P(1, {(0,): 1})
    f = P(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    rows = [[one, a], [a, P(1, {})]]
    assert_restricts(f, rows, restrict_to_span(f, rows))


def test_power_multiplies_from_the_base(monkeypatch):
    # x^k by square-and-multiply from x itself: k = 1, 2, 3, 5 take
    # 0, 1, 2, 3 products, and the powers agree with repeated products
    x = P(2, {(1, 0): 2, (0, 1): Fraction(-1, 3)})
    products = []
    multiply = SparsePoly.__mul__

    def counting(self, other):
        products.append(other)
        return multiply(self, other)

    monkeypatch.setattr(SparsePoly, "__mul__", counting)
    expected = P(2, {(0, 0): 1})
    for k in range(6):
        products.clear()
        assert x**k == expected
        assert len(products) == {0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3}[k]
        expected = multiply(expected, x)
    with pytest.raises(HmsError):
        x ** -1
