from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hmslines import hensel
from hmslines.errors import HmsError, PrecisionError
from hmslines.hensel import (
    block_roots,
    compose_binary,
    factor_monic_mod_p,
    hensel_factor_quartic,
    hensel_pair_lift,
)
from hmslines.padics import pdivmod, pext_euclid, peval, pgcd, pmod, pmul, psub, trim
from hmslines.lines import labc_line, quartic_of_line, Line
from hmslines.quartics import BinaryQuartic
from hmslines.search import build_model, intersection_points, parse_config
from hmslines.surface import char3_twist, rho0_twist, twisted_equations


PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)


def linear_pair_lift(f, g0, h0, p, K):
    """Reference lift of monic f = g0*h0 (mod p) to mod p^K, one p-adic
    digit per step with the Bezout pair of g0, h0 kept mod p."""
    s, t = pext_euclid(g0, h0, p)
    g, h = pmod(g0, p), pmod(h0, p)
    pk = p
    for _ in range(K - 1):
        prod = pmul(g, h, pk * p)
        e = trim([(fc - pc) // pk for fc, pc in _zip_pad(pmod(f, pk * p), prod)])
        u = pdivmod(pmul(t, e, p), g0, p)[1]
        w, rem = pdivmod(psub(e, pmul(u, h0, p), p), g0, p)
        assert not rem
        g = trim([(a + pk * b) for a, b in _zip_pad(g, u)])
        h = trim([(a + pk * b) for a, b in _zip_pad(h, w)])
        pk *= p
    return g, h


def _zip_pad(f, g):
    n = max(len(f), len(g))
    return zip(list(f) + [0] * (n - len(f)), list(g) + [0] * (n - len(g)))


def _times(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def lifted_root(f, r0, p, K):
    """The root of f mod p^K above the simple root r0 mod p."""
    h0 = pdivmod(pmod(f, p), [-r0 % p, 1], p)[0]
    g, _ = hensel_pair_lift(f, [-r0, 1], h0, p, K)
    return -g[0] % p**K


def Q(coeffs):
    return BinaryQuartic([Fraction(c) for c in coeffs])


def char3_model():
    return twisted_equations(char3_twist(1, 1))


def test_factor_monic_mod_p_recombines():
    # x^4 + 1 mod 3 factors as two irreducible quadratics
    f = [1, 0, 0, 0, 1]
    factors = factor_monic_mod_p(f, 3)
    assert sorted(len(g) - 1 for g, _ in factors) == [2, 2]
    prod = [1]
    for g, mult in factors:
        for _ in range(mult):
            prod = pmul(prod, g, 3)
    assert pmod(prod, 3) == pmod(f, 3)


def test_pair_lift_root_residual():
    # root of x^2 - 2 mod 7 lifted to high precision
    r = lifted_root([-2, 0, 1], 3, 7, 10)
    assert (r * r - 2) % 7**10 == 0


def test_hensel_pair_lift_residual():
    # x^4 + 1 = (x^2 + x + 2)(x^2 - x + 2) mod 3
    f = [1, 0, 0, 0, 1]
    g0 = [2, 1, 1]
    h0 = [2, -1, 1]
    g, h = hensel_pair_lift(f, g0, h0, 3, 8)
    prod = pmul(g, h, 3**8)
    assert pmod(prod, 3**8) == pmod(f, 3**8)


def test_worked_example_unramified_at_3():
    # the line with chart parameters (3, 243, 243) splits unramified
    # over Z_3: a double residue root that separates, plus an inert
    # quadratic point
    model = char3_model()
    line = labc_line(3, 243, 243)
    q = quartic_of_line(line, model)
    rep = hensel_factor_quartic(q, 3, 12)
    assert rep.verdict == "unramified"
    assert rep.squarefree_mod_p is False
    assert tuple(sorted(rep.residue_degrees)) == (1, 1, 2)
    kinds = sorted(
        (b.degree, b.residue_degree, b.multiplicity, b.verdict)
        for b in rep.blocks
    )
    assert kinds == [
        (2, 1, 2, "unramified"),
        (2, 2, 1, "unramified"),
    ]
    double = [b for b in rep.blocks if b.multiplicity == 2][0]
    assert double.disc_valuation == 4


def test_worked_example_squarefree_at_5():
    model = char3_model()
    line = labc_line(3, 243, 243)
    q = quartic_of_line(line, model)
    rep = hensel_factor_quartic(q, 5, 12)
    assert rep.verdict == "unramified"
    assert rep.squarefree_mod_p is True
    assert tuple(sorted(rep.residue_degrees)) == (2, 2)


def test_worked_example_inconclusive_for_archimedean_line():
    # the real-place line's quartic reduces to a linear factor times
    # the cube of a linear factor at both 3 and 5, which the sound
    # verdict scheme must leave inconclusive
    model = twisted_equations(rho0_twist())
    rows = [
        [1, 0, Fraction(-3, 4), Fraction(3, 4), 0, Fraction(-1, 2)],
        [0, 1, Fraction(-23, 20), Fraction(7, 20), 2, Fraction(3, 10)],
    ]
    q = quartic_of_line(Line(rows), model)
    for p in (3, 5):
        rep = hensel_factor_quartic(q, p, 12)
        assert rep.verdict == "inconclusive"
        mults = sorted(b.multiplicity for b in rep.blocks)
        assert mults == [1, 3]


def test_lifted_roots_satisfy_the_quartic():
    model = char3_model()
    line = labc_line(3, 243, 243)
    q = quartic_of_line(line, model)
    # primitive integer coefficients of the quartic
    den = 1
    for c in q.coeffs:
        c = Fraction(c)
        den = den * c.denominator // __import__("math").gcd(den, c.denominator)
    ints = [int(Fraction(c) * den) for c in q.coeffs]
    # at 3 a split (linear)^2 block, at 5 two blocks of residue degree 2
    kinds = set()
    for p in (3, 5):
        rep = hensel_factor_quartic(q, p, 10)
        kinds |= _assert_roots_satisfy(ints, rep)
    assert kinds == {(2, 1, 2), (2, 2, 1)}


def test_ramified_example_detected():
    # (t^2 - 3u^2)(t^2 + t u + u^2): both factors have odd-valuation
    # discriminant at 3, so the splitting field is ramified
    q = Q([3, 3, 4, 1, 1])
    # oracle for the construction: (t^2 - 3u^2)(t^2 + tu + u^2)
    # = t^4 + t^3 u + t^2 u^2 - 3t^2u^2 - 3tu^3 - 3u^4
    q = Q([-3, -3, -2, 1, 1])
    rep = hensel_factor_quartic(q, 3, 8)
    verdicts = {b.verdict for b in rep.blocks}
    assert "ramified" in verdicts
    assert rep.verdict == "ramified"


def test_exactly_repeated_root_behaviour():
    # (t - u)^2 (t^2 + t u + u^2) has a genuinely repeated root; its
    # double block's discriminant is exactly zero, so no finite
    # precision resolves it at 5, while at 3 the whole reduction
    # collapses to (t - u)^4 and the verdict is inconclusive
    q = Q([1, -1, 0, -1, 1])
    assert q.discriminant() == 0
    with pytest.raises(PrecisionError):
        hensel_factor_quartic(q, 5, 6)
    rep = hensel_factor_quartic(q, 3, 6)
    assert rep.verdict == "inconclusive"
    assert [b.multiplicity for b in rep.blocks] == [4]


def test_pair_lift_vs_peval_consistency():
    # x^3 + x^2 + 2 has no root mod 5; x^3 + x^2 + 4 has the simple
    # root 3
    p = 5
    lifted = 0
    for f in ([2, 0, 1, 1], [4, 0, 1, 1]):
        for r in range(p):
            if peval(f, r, p) == 0:
                root = lifted_root(f, r, p, 8)
                assert peval(pmod(f, p**8), root, p**8) == 0
                lifted += 1
    assert lifted == 1


def _sl2_product(steps):
    """Product of the SL2(Z) generators T^k = ((1, k), (0, 1)) and
    S = ((0, -1), (1, 0)), one per step."""
    m = ((1, 0), (0, 1))
    for kind, k in steps:
        g = ((1, k), (0, 1)) if kind == "T" else ((0, -1), (1, 0))
        m = tuple(
            tuple(sum(m[i][l] * g[l][j] for l in range(2)) for j in range(2))
            for i in range(2)
        )
    return m


def _binary_value(coeffs, t, u):
    d = len(coeffs) - 1
    return sum(c * t**i * u ** (d - i) for i, c in enumerate(coeffs))


def _assert_roots_satisfy(ints, rep):
    """Every root (t, u) of `block_roots` is a zero of the quartic with
    integer coefficients ints in the root's ring, and an unramified
    block has as many geometric roots as its degree, unless it is a
    (linear)^2 whose discriminant valuation v leaves no digit of its
    roots at the report's precision, which raises with precision v + 1.
    Returns the (block degree, ring degree, multiplicity) kinds seen."""
    kinds = set()
    for blk in rep.blocks:
        v = blk.disc_valuation
        if blk.verdict == "unramified" and v is not None and v >= rep.prec:
            with pytest.raises(PrecisionError) as exc:
                block_roots(rep, blk)
            assert exc.value.needed == v + 1
            continue
        roots = block_roots(rep, blk)
        for t, u in roots:
            assert u.ring is t.ring
            assert _binary_value(ints, t, u) == t.ring.zero()
            kinds.add((blk.degree, t.ring.deg, blk.multiplicity))
        if blk.verdict == "unramified":
            assert sum(t.ring.deg for t, _ in roots) == blk.degree
    return kinds


@PROPERTY
@given(
    st.lists(st.integers(-50, 50), min_size=5, max_size=5),
    st.lists(
        st.tuples(st.sampled_from("TS"), st.integers(-3, 3)), max_size=4
    ),
    st.integers(-5, 5),
    st.integers(-5, 5),
)
def test_compose_binary_round_trips_and_evaluates(coeffs, steps, t, u):
    (a, b), (c, d) = mat = _sl2_product(steps)
    assert a * d - b * c == 1
    inverse = ((d, -b), (-c, a))
    composed = compose_binary(coeffs, mat)
    assert compose_binary(composed, inverse) == coeffs
    assert _binary_value(composed, t, u) == _binary_value(
        coeffs, a * t + b * u, c * t + d * u
    )


@PROPERTY
@given(
    st.sampled_from([3, 5, 7, 11, 13]),
    st.integers(1, 12),
    st.integers(0, 10**6),
    st.integers(1, 20),
)
def test_pair_lift_root_of_a_square(p, r0, k, K):
    assume(r0 % p != 0)
    w = r0 * r0 + p * k
    g, h = hensel_pair_lift([-w, 0, 1], [-r0, 1], [r0, 1], p, K)
    r = -g[0] % p**K
    assert (r * r - w) % p**K == 0
    assert r % p == r0 % p
    assert h == [r, 1]


def _monic(degree):
    return st.lists(
        st.integers(0, 48), min_size=degree, max_size=degree
    ).map(lambda low: low + [1])


@PROPERTY
@given(
    st.sampled_from([3, 5, 7]),
    st.integers(1, 3).flatmap(_monic),
    st.integers(1, 3).flatmap(_monic),
    st.lists(st.integers(-10**6, 10**6), min_size=6, max_size=6),
    st.integers(1, 40),
)
def test_quadratic_pair_lift_matches_the_linear_lift(p, g0, h0, noise, K):
    g0, h0 = pmod(g0, p), pmod(h0, p)
    assume(len(pgcd(g0, h0, p)) == 1)
    # a monic f with f = g0*h0 mod p
    prod = _times(g0, h0)
    f = [c + p * e for c, e in zip(prod[:-1], noise)] + [1]
    quadratic = hensel_pair_lift(f, g0, h0, p, K)
    assert quadratic == linear_pair_lift(f, g0, h0, p, K)
    g, h = quadratic
    assert pmod(pmul(g, h, p**K), p**K) == pmod(f, p**K)


def _primitive_form(degree):
    return st.lists(
        st.integers(-6, 6), min_size=degree + 1, max_size=degree + 1
    ).filter(lambda c: gcd(*c) == 1)


def _p_valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _legendre(a, p):
    return pow(a % p, (p - 1) // 2, p)


@st.composite
def _double_of_chosen_valuation(draw):
    """(t - r u)^2 - 15^v w u^2, the square of a linear form mod 3 and
    mod 5 whose discriminant 4 * 15^v * w has valuation v at both."""
    r = draw(st.integers(-6, 6))
    v = draw(st.integers(1, 12))
    w = draw(st.sampled_from([1, -1, 2, -2, 7, -7]))
    return [r * r - 15**v * w, -2 * r, 1]


def _residue_roots(form, p):
    """{point: multiplicity} of the roots on P^1(F_p) of a primitive
    integer binary form of degree 1 or 2; [x : 1] is x, [1 : 0] None."""
    points = [x for x in range(p) if _binary_value(form, x, 1) % p == 0]
    if form[-1] % p == 0:
        points.append(None)
    if len(form) == 3 and (form[1] ** 2 - 4 * form[0] * form[2]) % p == 0:
        return {points[0]: 2}  # a nonzero square of a linear form mod p
    return dict.fromkeys(points, 1)


def _doubles(factors, p):
    """The (linear)^2 blocks of the reduction mod p, each the product of
    the factors through one double root, when every repeated root is a
    double one and the factors through it have no other root mod p;
    else None."""
    roots = [_residue_roots(g, p) for g in factors]
    multiplicity = {}
    for points in roots:
        for point, k in points.items():
            multiplicity[point] = multiplicity.get(point, 0) + k
    blocks = []
    for point, k in multiplicity.items():
        if k == 1:
            continue
        through = [(g, points) for g, points in zip(factors, roots) if point in points]
        if k > 2 or any(len(points) > 1 for _, points in through):
            return None
        block = [1]
        for g, _ in through:
            block = _times(block, g)
        blocks.append(block)
    return blocks


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.one_of(
        st.tuples(*[_primitive_form(1)] * 4),
        st.tuples(_primitive_form(1), _primitive_form(1), _primitive_form(2)),
        st.tuples(_primitive_form(2), _primitive_form(2)),
        st.tuples(_double_of_chosen_valuation(), _primitive_form(2)),
        st.tuples(_double_of_chosen_valuation(), _primitive_form(1), _primitive_form(1)),
        st.tuples(_double_of_chosen_valuation(), _double_of_chosen_valuation()),
    ),
    st.lists(
        st.tuples(st.sampled_from("TS"), st.integers(-3, 3)), max_size=4
    ),
    st.sampled_from([3, 5]),
    st.integers(1, 30),
)
# t u (t - u)(t + u) vanishes on all of P^1(F_3): no chart has a unit
# leading coefficient
@example(([0, 1], [1, 0], [-1, 1], [1, 1]), [], 3, 12)
# t^2 - 3u^2 and (t + u)^2 - 3u^2: two (linear)^2 blocks mod 3, each of
# odd discriminant valuation, while v_3(D) = 2 is even
@example(([-3, 0, 1], [-2, 2, 1]), [], 3, 12)
# t^2 - 15^6 u^2 times t^2 + u^2, irreducible mod 3: a lone (linear)^2
# block of even valuation 6 >= K, unramified but with no digit of its roots
@example(([-15**6, 0, 1], [1, 0, 1]), [], 3, 5)
# t^2 - 15^6 u^2 and (t - u)^2 - 15 u^2: two (linear)^2 blocks mod 3 of
# valuations 6 and 1; at K = 5 the first is O(3^5), and v_3(D) = 7 gives it
@example(([-15**6, 0, 1], [-14, -2, 1]), [], 3, 5)
def test_local_factorization_agrees_with_the_construction(factors, steps, p, K):
    # oracle: the splitting field of a product of integer forms is
    # ramified at p exactly when some quadratic factor has a discriminant
    # of odd valuation; a quadratic factor has residue degree 2 exactly
    # when its discriminant is a nonsquare mod p; disc(g h) = disc g
    # disc h Res(g, h)^2 with Res(g, h) a unit for g, h coprime mod p, so
    # when the reduction's repeated factors are (linear)^2 blocks their
    # discriminant valuations add up to that of the quartic
    (a, b), (c, d) = _sl2_product(steps)
    product = [1]
    for g in factors:
        product = _times(product, g)
    ints = compose_binary(product, ((a, b), (c, d)))
    q = Q(ints)
    assume(q.discriminant() != 0)
    quadratic_discs = [g[1] ** 2 - 4 * g[0] * g[2] for g in factors if len(g) == 3]
    ramified = any(_p_valuation(D, p) % 2 for D in quadratic_discs)
    residue_degrees = [1] * (4 - 2 * len(quadratic_discs))
    for D in quadratic_discs:
        residue_degrees += [2] if _legendre(D, p) == p - 1 else [1, 1]
    doubles = _doubles(factors, p)
    valuations = sorted(
        _p_valuation(g[1] ** 2 - 4 * g[0] * g[2], p) for g in doubles or []
    )
    try:
        rep = hensel_factor_quartic(q, p, K)
    except PrecisionError as exc:
        # only two (linear)^2 blocks both of discriminant O(p^K) raise
        assert exc.needed == K + 1
        assert doubles is None or len(valuations) == 2 and valuations[0] >= K
        return
    assert rep.verdict in ("ramified" if ramified else "unramified", "inconclusive")
    assert rep.residue_degrees == tuple(sorted(residue_degrees))
    if doubles:
        read = sorted(
            b.disc_valuation for b in rep.blocks if b.degree == b.multiplicity == 2
        )
        assert read == valuations
        assert sum(read) == _p_valuation(int(q.discriminant()), p)
        assert rep.verdict == ("ramified" if any(v % 2 for v in read) else "unramified")
    _assert_roots_satisfy(ints, rep)


@pytest.mark.parametrize("abc", [(3, 162, 243), (-78, -162, 243)])
def test_a_block_discriminant_O_of_p_to_the_K_comes_from_v_p_D(abc):
    # char3-demo lines with two (linear)^2 blocks at 3 of discriminant
    # valuations 3 and 6 and v_3(D) = 9: at K = 5 the second is O(3^5)
    # and reads 9 - 3, so the first, ramified, decides as at K = 40
    q = quartic_of_line(labc_line(*abc), char3_model())
    for K in (5, 40):
        rep = hensel_factor_quartic(q, 3, K)
        assert rep.verdict == "ramified"
        assert [b.disc_valuation for b in rep.blocks] == [3, 6]


def test_two_block_discriminants_O_of_p_to_the_K_raise():
    # t^2 - 15^6 u^2 and (t - u)^2 - 15^6 u^2: two (linear)^2 blocks mod 3
    # of valuation 6 each, neither read at K = 5
    q = Q(_times([-15**6, 0, 1], [1 - 15**6, -2, 1]))
    with pytest.raises(PrecisionError, match=r"discriminant is O\(3\^5\)") as exc:
        hensel_factor_quartic(q, 3, 5)
    assert exc.value.needed == 6
    assert [b.disc_valuation for b in hensel_factor_quartic(q, 3, 7).blocks] == [6, 6]


def test_point_extraction_lifts_nothing_again(monkeypatch):
    # the quartic of this line has two quadratic residue factors at 5
    # and a (linear)^2 times a quadratic at 3: each is factored once mod
    # p, each report lifts its blocks once, and a second extraction of
    # the points lifts no block again
    factorizations = []
    factor = hensel.factor_monic_mod_p

    def counting_factor(f, p):
        factorizations.append(p)
        return factor(f, p)

    block_lifts, nested = [], []
    lift_factors = hensel.hensel_lift_factors

    def counting_lift_factors(f, parts, p, K):
        # the recursion calls back through the module: count the outer call
        if not nested:
            block_lifts.append(p)
        nested.append(p)
        try:
            return lift_factors(f, parts, p, K)
        finally:
            nested.pop()

    monkeypatch.setattr(hensel, "factor_monic_mod_p", counting_factor)
    monkeypatch.setattr(hensel, "hensel_lift_factors", counting_lift_factors)
    line = labc_line(3, 243, 243)
    q = quartic_of_line(line, char3_model())
    rep3 = hensel_factor_quartic(q, 3, 12)
    rep5 = hensel_factor_quartic(q, 5, 12)
    assert (rep3.squarefree_mod_p, rep5.residue_degrees) == (False, (2, 2))
    assert factorizations == [3, 5]
    # the blocks of the squarefree reduction at 5 are lifted to be put in
    # residue order; the lone (linear)^2 at 3 has its verdict unlifted
    assert block_lifts == [5]
    for _ in range(2):
        points3, points5 = intersection_points(rep3), intersection_points(rep5)
        assert [pt.ring.deg for pt in points3] == [1, 1, 2]
        assert [pt.ring.deg for pt in points5] == [2, 2]
        assert block_lifts == [5, 3]


def _monic_polys(degree, p):
    """Every monic polynomial of the degree mod p, low degree first."""
    for n in range(p**degree):
        low = [n // p**i % p for i in range(degree)]
        yield low + [1]


@pytest.mark.parametrize("p", [3, 5])
def test_factor_monic_mod_p_against_trial_division(p):
    # oracle: the factors multiply back to f with their multiplicities,
    # are distinct and monic, have no monic divisor of degree 1 to
    # deg/2 by trial division, and come sorted by (degree, coefficients)
    divisors = {k: list(_monic_polys(k, p)) for k in (1, 2)}
    for degree in range(1, 5):
        for f in _monic_polys(degree, p):
            factors = factor_monic_mod_p(f, p)
            prod = [1]
            for g, mult in factors:
                assert g[-1] == 1 and mult >= 1 and len(g) >= 2
                for _ in range(mult):
                    prod = pmul(prod, list(g), p)
                for k in range(1, (len(g) - 1) // 2 + 1):
                    assert all(pdivmod(list(g), h, p)[1] for h in divisors[k]), (f, g)
            assert prod == f
            assert len({g for g, _ in factors}) == len(factors)
            assert factors == sorted(factors, key=lambda kv: (len(kv[0]), kv[0]))


def _primitive_positive(coeffs):
    content = gcd(*coeffs)
    return [c // content for c in coeffs]


@st.composite
def _irreducible_int(draw, degree):
    """A primitive integer polynomial of the degree with positive
    leading coefficient, irreducible over Q by construction: a linear
    form, a quadratic of non-square discriminant, or a cubic or quartic
    that is Eisenstein at 2."""
    lead = draw(st.integers(1, 15))
    if degree == 1:
        return _primitive_positive([draw(st.integers(-20, 20)), lead])
    if degree == 2:
        b, c = draw(st.integers(-20, 20)), draw(st.integers(-20, 20))
        disc = b * b - 4 * lead * c
        assume(disc < 0 or isqrt(disc) ** 2 != disc)
        return _primitive_positive([c, b, lead])
    assume(lead % 2)
    middle = draw(st.lists(st.integers(-10, 10), min_size=degree - 1, max_size=degree - 1))
    constant = 2 * (2 * draw(st.integers(-10, 10)) + 1)
    # the content is odd, so the primitive part is Eisenstein at 2 too
    return _primitive_positive([constant] + [2 * m for m in middle] + [lead])


_DEGREE_SPLITS = [(1,), (2,), (3,), (4,), (1, 1), (1, 2), (1, 3), (2, 2), (1, 1, 1),
                  (1, 1, 2), (1, 1, 1, 1)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(_DEGREE_SPLITS).flatmap(
    lambda split: st.tuples(*[_irreducible_int(d) for d in split])
), st.sampled_from([1, -1, 2, -6, 35]))
def test_factor_squarefree_int_returns_the_constructed_factors(factors, scale):
    factors = [list(g) for g in factors]
    assume(len({tuple(g) for g in factors}) == len(factors))
    product = [scale]
    for g in factors:
        product = _times(product, g)
    got = hensel.factor_squarefree_int(product)
    assert got == sorted(factors, key=lambda h: (len(h), h))


def test_factor_squarefree_int_refuses_a_square_factor():
    # (x + 1)^2 (x + 2) and (x^2 + 1)^2: every prime divides the zero
    # discriminant, so the rejected primes pass Mahler's bound at once
    for f in ([2, 5, 4, 1], [1, 0, 2, 0, 1]):
        with pytest.raises(HmsError, match="not squarefree"):
            hensel.factor_squarefree_int(f)
