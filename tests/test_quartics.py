import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hmslines.errors import DegenerateLineError, HmsError
from hmslines.padics import UnramifiedRing
from hmslines.quartics import BinaryQuartic, real_root_count
from hmslines.scalars import primitive_integers
from hmslines.verify import roots_over_Fq

from exact_oracles import compose_binary

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)
F3 = UnramifiedRing(3, (0, 1), 1)
# F_5[w]/(w^2 + 3): w is a square root of -3
F25 = UnramifiedRing(5, (3, 0, 1), 1)
# small and huge ints and zeros, mixed
COEFFS = st.one_of(
    st.integers(-(10**6), 10**6),
    st.integers(-(10**30), 10**30),
    st.just(0),
)
INTS = st.lists(COEFFS, min_size=5, max_size=5).filter(any)


def product_form(factors):
    """Product of binary forms, each a coefficient list c0, c1, ..."""
    out = [Fraction(1)]
    for f in factors:
        nxt = [Fraction(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                nxt[i + j] += a * b
        out = nxt
    return out


def from_roots(roots, fill):
    """Monic binary quartic with the given rational roots t/u = r.

    fill supplies irreducible quadratic factors (a, b) meaning
    t^2 + a t u + b u^2 for the remaining degree.
    """
    coeffs = product_form([[-r, 1] for r in roots] + [[b, a, 1] for a, b in fill])
    assert len(coeffs) == 5
    return BinaryQuartic(primitive_integers(coeffs))


def test_discriminant_is_product_of_squared_root_differences():
    # (t - u)(t - 2u)(t - 3u)(t - 4u): squared differences multiply to 144
    q = from_roots([1, 2, 3, 4], [])
    assert q.discriminant() == 144


def test_discriminant_vanishes_on_repeated_root():
    q = from_roots([1, 1, 2, 3], [])
    assert q.discriminant() == 0


def test_zero_form_raises():
    with pytest.raises(DegenerateLineError, match="degree-8 locus"):
        BinaryQuartic([0] * 5)


def classical_discriminant(c0, c1, c2, c3, c4):
    """The 16-term discriminant of a x^4 + b x^3 + c x^2 + d x + e."""
    a, b, c, d, e = c4, c3, c2, c1, c0
    return (
        256 * a**3 * e**3
        - 192 * a**2 * b * d * e**2
        - 128 * a**2 * c**2 * e**2
        + 144 * a**2 * c * d**2 * e
        - 27 * a**2 * d**4
        + 144 * a * b**2 * c * e**2
        - 6 * a * b**2 * d**2 * e
        - 80 * a * b * c**2 * d * e
        + 18 * a * b * c * d**3
        + 16 * a * c**4 * e
        - 4 * a * c**3 * d**2
        - 27 * b**4 * e**2
        + 18 * b**3 * c * d * e
        - 4 * b**3 * d**3
        - 4 * b**2 * c**3 * e
        + b**2 * c**2 * d**2
    )


@PROPERTY
@given(INTS)
def test_rational_discriminant_matches_the_universal_polynomial(coeffs):
    got = BinaryQuartic(coeffs).discriminant()
    assert (got, type(got)) == (classical_discriminant(*coeffs), int)


@PROPERTY
@given(INTS, st.integers(1, 10**6))
def test_a_multiple_has_the_primitive_model_times_its_content(coeffs, m):
    q, multiple = BinaryQuartic(coeffs), BinaryQuartic([m * c for c in coeffs])
    assert (multiple.coeffs, multiple.disc) == (q.coeffs, q.disc)
    assert multiple.content == m * q.content
    # (4 I^3 - J^2) / 27 on the raw ints, degree 6 in them
    c0, c1, c2, c3, c4 = coeffs
    I = 12 * c4 * c0 - 3 * c3 * c1 + c2 * c2
    J = 72 * c4 * c2 * c0 + 9 * c3 * c2 * c1 - 27 * (c4 * c1**2 + c0 * c3**2) - 2 * c2**3
    assert q.discriminant() * 27 == 4 * I**3 - J**2
    assert multiple.discriminant() == m**6 * q.discriminant()


def test_a_quartic_needs_int_coefficients():
    # t^4 - u^4 over F_3, F_25 and Z/3^10, and over Q with a Fraction
    for ring in (F3, F25, UnramifiedRing(3, (0, 1), 10)):
        zero, one = ring.zero(), ring.one()
        with pytest.raises(HmsError, match="int coefficients"):
            BinaryQuartic([-one, zero, zero, zero, one])
    for coeffs in ([Fraction(-1), 0, 0, 0, 1], [-1, 0, 0, 0, True], [-1, 0, 0, 1]):
        with pytest.raises(HmsError, match="int coefficients"):
            BinaryQuartic(coeffs)


def test_real_root_count_on_constructed_quartics():
    # oracle: build quartics whose real root structure is known by
    # construction (rational roots plus negative-discriminant quadratics)
    rng = random.Random(7)
    for _ in range(40):
        n_real = rng.choice([0, 2, 4])
        roots = set()
        while len(roots) < n_real:
            roots.add(Fraction(rng.randint(-8, 8), rng.randint(1, 4)))
        fill = []
        for _ in range((4 - n_real) // 2):
            a = Fraction(rng.randint(-3, 3))
            # force a^2 - 4b < 0
            b = Fraction(a * a, 4) + rng.randint(1, 5)
            fill.append((a, b))
        q = from_roots(sorted(roots), fill)
        if q.discriminant() == 0:
            continue  # coincidence between the quadratic factors
        assert real_root_count(q) == n_real


def test_real_root_count_includes_root_at_infinity():
    # (t - u) t (t^2 + u^2): roots [1 : 1], [0 : 1] and none real from
    # the quadratic; u = 0 is not a root since the t^4 coefficient is 1
    q = from_roots([0, 1], [(0, 1)])
    assert real_root_count(q) == 2
    # u (t - u)(t - 2u)(t - 3u): three affine roots plus [1 : 0]
    with_infinity = BinaryQuartic([-6, 11, -6, 1, 0])
    assert real_root_count(with_infinity) == 4


SMALL = st.fractions(-20, 20, max_denominator=6)
# t^2 + a t u + b u^2 with a^2 - 4b < 0: no real root
DEFINITE = st.builds(
    lambda a, gap: (a, a * a / 4 + gap),
    st.fractions(-10, 10, max_denominator=4),
    st.fractions(Fraction(1, 8), 20, max_denominator=8),
)
# ((1, k), (0, 1)) ((1, 0), (m, 1)): determinant 1
UNIMODULAR = st.builds(
    lambda k, m: ((1 + k * m, k), (m, 1)), st.integers(-3, 3), st.integers(-3, 3)
)


@st.composite
def quartic_with_known_real_roots(draw, forced):
    """(q, n): a squarefree quartic with exactly n distinct real roots.

    forced lists roots put in by hand: "infinity" is [1:0] (factor u)
    and 0 is [0:1] (factor t).  Distinct affine roots [r:1] make up the
    rest of the n, distinct monic definite quadratics the rest of the
    degree, and a nonzero rational scales the product.  Without forced
    roots a unimodular change of variables makes the coefficients
    generic; GL2(Z) maps real roots to real roots.
    """
    n = draw(st.sampled_from([n for n in (0, 2, 4) if n >= len(forced)]))
    affine = draw(
        st.lists(
            SMALL.filter(lambda r: r not in forced),
            min_size=n - len(forced),
            max_size=n - len(forced),
            unique=True,
        )
    )
    quadratics = draw(
        st.lists(DEFINITE, min_size=(4 - n) // 2, max_size=(4 - n) // 2, unique=True)
    )
    scale = draw(SMALL.filter(lambda x: x != 0))
    roots = list(forced) + affine
    factors = [[1, 0] if r == "infinity" else [-r, 1] for r in roots]
    factors += [[b, a, 1] for a, b in quadratics]
    coeffs = [scale * c for c in product_form(factors)]
    if not forced:
        coeffs = compose_binary(coeffs, draw(UNIMODULAR))
    return BinaryQuartic(primitive_integers(coeffs)), n


@pytest.mark.parametrize(
    "forced",
    [(), ("infinity",), ("infinity", 0)],
    ids=["affine", "infinity", "infinity-and-zero"],
)
@PROPERTY
@given(data=st.data())
def test_real_root_count_matches_roots_built_in(forced, data):
    q, n = data.draw(quartic_with_known_real_roots(forced))
    # [1:0] is a root when c4 = 0, [0:1] when c0 = 0
    if "infinity" in forced:
        assert q.coeffs[4] == 0
    if 0 in forced:
        assert q.coeffs[0] == 0
    assert real_root_count(q) == n


@pytest.mark.parametrize(
    "coeffs",
    [
        [1, -2, 2, -2, 1],  # (t - u)^2 (t^2 + u^2): affine double root
        [1, 0, 2, 0, 1],  # (t^2 + u^2)^2: no real root, still repeated
        [1, 0, 1, 0, 0],  # u^2 (t^2 + u^2): [1 : 0] is a double root
        [0, 1, -2, 1, 0],  # t u (t - u)^2 with c4 = 0 and c3 != 0
        [0, 0, 3, 0, 0],  # 3 t^2 u^2: [0 : 1] and [1 : 0] both double
    ],
)
def test_real_root_count_rejects_repeated_roots(coeffs):
    # each has a repeated root: a zero discriminant
    q = BinaryQuartic(coeffs)
    assert q.discriminant() == 0
    with pytest.raises(HmsError, match="squarefree"):
        real_root_count(q)


def test_roots_over_f25_with_multiplicity():
    F = F25
    # t^2 u^2 has roots [0 : 1] and [1 : 0], both double
    roots = dict(roots_over_Fq([0, 0, 1, 0, 0], F))
    assert len(roots) == 2
    assert set(roots.values()) == {2}


def test_roots_over_f25_finds_quadratic_extension_roots():
    F = F25
    # t^2 - 2 u^2 is irreducible over F_5 but splits over F_25
    roots = roots_over_Fq([-2, 0, 1, 0, 0], F)
    w = F.gen()
    found = {pt for pt, _ in roots}
    assert (w, F.one()) in found
    assert (-w, F.one()) in found


def test_roots_over_fq_needs_precision_one():
    # Z/9 is not a field: the scan would miss roots such as 3 of t^2
    q = [0, 0, 1, 0, 0]
    with pytest.raises(HmsError, match="precision 1"):
        roots_over_Fq(q, UnramifiedRing(3, (0, 1), 2))
    assert roots_over_Fq(q, F3) == [
        ((F3.one(), F3.zero()), 2),
        ((F3.zero(), F3.one()), 2),
    ]


def test_roots_over_fq_rejects_a_form_that_vanishes_mod_p():
    # 3 t^4 - 6 t u^3 + 9 u^4 is the zero form over F_3: every point is a root
    q = [9, -6, 0, 0, 3]
    with pytest.raises(DegenerateLineError):
        roots_over_Fq(q, F3)
    # over F_5 it is 3 (t - 2u)^2 (t^2 - t u + 2 u^2), split over F_25
    assert sorted(m for _, m in roots_over_Fq(q, F25)) == [1, 1, 2]
