from collections import Counter
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hmslines import hensel
from hmslines.errors import HmsError, PrecisionError
from hmslines.hensel import (
    block_roots,
    factor_monic_mod_p,
    hensel_factor_quartic,
    hensel_pair_lift,
)
from hmslines.padics import pdivmod, pext_euclid, peval, pgcd, pmod, pmul, psub, trim
from hmslines.lines import labc_line, quartic_of_line, Line
from hmslines.quartics import BinaryQuartic
from hmslines.scalars import primitive_integers
from hmslines.search import build_model, intersection_points, parse_config
from hmslines.surface import char3_twist, rho0_twist, twisted_equations

from exact_oracles import compose_binary


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
    """The quartic of rationals, denominators cleared."""
    return BinaryQuartic(primitive_integers(coeffs))


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
    ints = list(q.coeffs)
    # at 3 a split (linear)^2 block, at 5 two blocks of residue degree 2
    kinds = set()
    for p in (3, 5):
        rep = hensel_factor_quartic(q, p, 10)
        kinds |= _assert_roots_satisfy(ints, rep, 10)
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


def _assert_roots_satisfy(ints, rep, prec):
    """Every root (z, flipped) of `block_roots`, the point [z : 1] or
    [1 : z], is a zero of the quartic with integer coefficients ints in
    the root's ring, flipped exactly when the top coefficient of the
    block's lift mod p^prec is divisible by p, and never for a simple
    block of residue degree >= 2.  An unramified block has as many
    geometric roots as its degree, unless it is a (linear)^2 whose
    discriminant valuation v leaves no digit of its roots at the
    report's precision prec, which raises with precision v + 1.
    Returns the (block degree, ring degree, multiplicity) kinds seen."""
    kinds = set()
    for blk in rep.blocks:
        v = blk.disc_valuation
        if blk.verdict == "unramified" and v is not None and v >= prec:
            with pytest.raises(PrecisionError) as exc:
                block_roots(rep, blk, prec)
            assert exc.value.needed == v + 1
            continue
        roots = block_roots(rep, blk, prec)
        for z, flipped in roots:
            assert flipped == (rep.lift(prec)[blk.index][-1] % rep.p == 0)
            assert not (flipped and blk.multiplicity == 1 and blk.residue_degree >= 2)
            one = z.ring.one()
            t, u = (one, z) if flipped else (z, one)
            assert _binary_value(ints, t, u) == z.ring.zero()
            kinds.add((blk.degree, z.ring.deg, blk.multiplicity))
        if blk.verdict == "unramified":
            assert sum(z.ring.deg for z, _ in roots) == blk.degree
    return kinds


@PROPERTY
@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=6),
    st.lists(
        st.tuples(st.sampled_from("TS"), st.integers(-3, 3)), max_size=4
    ),
    st.lists(st.integers(-4, 4), min_size=4, max_size=4),
    st.integers(-5, 5),
    st.integers(-5, 5),
)
def test_compose_binary_round_trips_and_evaluates(coeffs, steps, entries, t, u):
    # the tests' substitution (`exact_oracles`): an SL2(Z) chart and its
    # inverse give the form back, and any integer matrix evaluates
    (a, b), (c, d) = mat = _sl2_product(steps)
    assert a * d - b * c == 1
    inverse = ((d, -b), (-c, a))
    composed = compose_binary(coeffs, mat)
    assert compose_binary(composed, inverse) == coeffs
    for (a, b), (c, d) in (mat, (entries[:2], entries[2:])):
        assert _binary_value(compose_binary(coeffs, ((a, b), (c, d))), t, u) == (
            _binary_value(coeffs, a * t + b * u, c * t + d * u)
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


# integer forms whose product has a known factorization over Z_p, and
# the steps of an SL2(Z) chart to move it by
_FACTORS = st.one_of(
    st.tuples(*[_primitive_form(1)] * 4),
    st.tuples(_primitive_form(1), _primitive_form(1), _primitive_form(2)),
    st.tuples(_primitive_form(2), _primitive_form(2)),
    st.tuples(_double_of_chosen_valuation(), _primitive_form(2)),
    st.tuples(_double_of_chosen_valuation(), _primitive_form(1), _primitive_form(1)),
    st.tuples(_double_of_chosen_valuation(), _double_of_chosen_valuation()),
)
_STEPS = st.lists(st.tuples(st.sampled_from("TS"), st.integers(-3, 3)), max_size=4)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    _FACTORS,
    _STEPS,
    st.sampled_from([3, 5]),
    st.integers(1, 30),
)
# t u (t - u)(t + u) vanishes on all of P^1(F_3): four simple blocks,
# the last at [1:0]
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
    # the lift is unique, so a lift at a lower precision is the one at K
    # reduced
    for k in {1, (K + 1) // 2}:
        assert rep.lift(k) == [tuple(c % p**k for c in B) for B in rep.lift(K)]
    assert rep.residue_degrees == tuple(sorted(residue_degrees))
    if doubles:
        read = sorted(
            b.disc_valuation for b in rep.blocks if b.degree == b.multiplicity == 2
        )
        assert read == valuations
        assert sum(read) == _p_valuation(int(q.discriminant()), p)
        assert rep.verdict == ("ramified" if any(v % 2 for v in read) else "unramified")
    _assert_roots_satisfy(ints, rep, K)


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
    # and a (linear)^2 times a quadratic at 3: from a cold residue memo
    # each is factored once mod p, and a second report of the same
    # residue factors nothing; neither report forms its monic form or
    # lifts a block until its points are read, each lifts its
    # blocks once then, and a second extraction of the points lifts no
    # block again
    factorizations = []
    factor = hensel.factor_monic_mod_p

    def counting_factor(f, p):
        factorizations.append(p)
        return factor(f, p)

    block_lifts = []
    lift_factors = hensel.hensel_lift_factors

    def counting_lift_factors(f, parts, p, K):
        block_lifts.append(p)
        return lift_factors(f, parts, p, K)

    monkeypatch.setattr(hensel, "_RESIDUES", {})
    monkeypatch.setattr(hensel, "factor_monic_mod_p", counting_factor)
    monkeypatch.setattr(hensel, "hensel_lift_factors", counting_lift_factors)
    line = labc_line(3, 243, 243)
    q = quartic_of_line(line, char3_model())
    rep3 = hensel_factor_quartic(q, 3, 12)
    rep5 = hensel_factor_quartic(q, 5, 12)
    assert (rep3.squarefree_mod_p, rep5.residue_degrees) == (False, (2, 2))
    assert factorizations == [3, 5]
    again = [hensel_factor_quartic(q, p, 7) for p in (3, 5)]
    assert [rep.blocks for rep in again] == [rep3.blocks, rep5.blocks]
    assert factorizations == [3, 5]
    # the blocks of the squarefree reduction at 5 are put in residue
    # order unlifted; the lone (linear)^2 at 3 has its verdict unlifted
    assert block_lifts == []
    assert not any("_monic" in vars(rep) for rep in (rep3, rep5, *again))
    for _ in range(2):
        points3, points5 = intersection_points(rep3, 12), intersection_points(rep5, 12)
        assert [pt.ring.deg for pt in points3] == [1, 1, 2]
        assert [pt.ring.deg for pt in points5] == [2, 2]
        assert block_lifts == [3, 5]


# the quartics of `test_local_factorization_agrees_with_the_construction`
_CONSTRUCTED_QUARTICS = st.builds(
    lambda factors, steps: compose_binary(_product(factors), _sl2_product(steps)),
    _FACTORS,
    _STEPS,
)


def _product(factors):
    product = [1]
    for g in factors:
        product = _times(product, g)
    return product


def _pair_lifts_per_lift(monkeypatch):
    """The number of `hensel_pair_lift` calls made in each
    `hensel_lift_factors` call, one entry per call, in order."""
    counts = []
    lift_factors, pair_lift = hensel.hensel_lift_factors, hensel.hensel_pair_lift

    def counting_lift_factors(*args):
        counts.append(0)
        return lift_factors(*args)

    def counting_pair_lift(*args):
        counts[-1] += 1
        return pair_lift(*args)

    monkeypatch.setattr(hensel, "hensel_lift_factors", counting_lift_factors)
    monkeypatch.setattr(hensel, "hensel_pair_lift", counting_pair_lift)
    return counts


def _report_or_error(q, p, K):
    try:
        return hensel_factor_quartic(q, p, K)
    except PrecisionError as exc:
        return exc


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_CONSTRUCTED_QUARTICS, st.sampled_from([3, 5]), st.integers(1, 30))
# (t^2 - 27u^2)((t - u)^2 - 9u^2), v_3(D) = 5: both (linear)^2 blocks
# are O(3^2), so the report raises
@example([216, 54, -35, -2, 1], 3, 2)
def test_an_odd_v_p_D_is_never_unramified(ints, p, K):
    # Neukirch, Algebraic Number Theory, I (2.12): v_p(D) is v_p of the
    # discriminant of the maximal order plus twice that of an index, and
    # an unramified algebra has a unit discriminant; so an odd v_p(D),
    # which the search's gates read before any report, never comes with
    # an "unramified" report
    D = Q(ints).discriminant()
    assume(D != 0 and _p_valuation(int(D), p) % 2 == 1)
    report = _report_or_error(Q(ints), p, K)
    assert isinstance(report, PrecisionError) or report.verdict != "unramified"


def _report_state(report, K):
    if isinstance(report, PrecisionError):
        return ("PrecisionError", str(report), report.needed)
    return (
        report.blocks,
        report.verdict,
        report.residue_degrees,
        report.squarefree_mod_p,
        report.lift(K),
    )


@PROPERTY
@given(
    st.one_of(
        _CONSTRUCTED_QUARTICS,
        st.lists(st.integers(-40, 40), min_size=5, max_size=5),
    ),
    st.sampled_from([3, 5]),
    st.integers(1, 20),
)
def test_a_report_from_a_warm_residue_memo_is_the_cold_one(ints, p, K):
    # the memo is keyed on the whole residue: warmed by every quartic
    # that differs from this one mod p in one coefficient, it still
    # gives the report built from an empty memo
    assume(any(ints))
    q = Q(ints)
    hensel._RESIDUES.clear()
    cold = _report_state(_report_or_error(q, p, K), K)
    hensel._RESIDUES.clear()
    for i in range(5):
        for step in range(1, p):
            moved = list(q.coeffs)
            moved[i] += step
            if any(moved):
                _report_or_error(Q(moved), p, K)
    assert _report_state(_report_or_error(q, p, K), K) == cold


@st.composite
def _quartic_and_prime(draw):
    """(ints, p), p 3 or 5: mostly a quartic whose top m coefficients, m
    from 1 to 4, are small multiples of powers of p, so that [1:0] is a
    root of multiplicity at least m mod p; else a constructed quartic,
    moved by SL2(Z)."""
    p = draw(st.sampled_from([3, 5]))
    if draw(st.integers(0, 3)) == 0:
        return draw(_CONSTRUCTED_QUARTICS), p
    m = draw(st.integers(1, 4))
    low = draw(st.lists(st.integers(-30, 30), min_size=5 - m, max_size=5 - m))
    high = [p ** draw(st.integers(1, 4)) * draw(st.integers(-5, 5)) for _ in range(m)]
    return low + high, p


def _chart_free_state(report):
    """What a report certifies, with nothing of a chart: its verdict,
    residue degrees, squarefreeness and the multiset of its blocks, or
    the PrecisionError it raised."""
    if isinstance(report, PrecisionError):
        return ("PrecisionError", report.needed)
    blocks = Counter(
        (b.degree, b.residue_degree, b.multiplicity, b.verdict, b.disc_valuation)
        for b in report.blocks
    )
    return report.verdict, report.residue_degrees, report.squarefree_mod_p, blocks


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_quartic_and_prime(), _STEPS, st.integers(1, 20))
# u^4 + 3 t^4: [1:0] a root of multiplicity 4 mod 3, moved to [0:1]
@example(([1, 0, 0, 0, 3], 3), [("S", 0)], 5)
# u^2 (t^2 + u^2) + 27 t^4: a (linear)^2 block at [1:0] mod 3, moved to [0:1]
@example(([1, 0, 1, 0, 27], 3), [("S", 0)], 12)
def test_a_report_is_the_same_in_every_sl2_chart(drawn, steps, K):
    # oracle: an SL2(Z) substitution permutes P^1(F_p) and changes D by
    # nothing, so it keeps the residue factorization and the verdicts,
    # wherever it moves the root at [1:0]
    ints, p = drawn
    assume(any(ints))
    moved = compose_binary(ints, _sl2_product(steps))
    assert _chart_free_state(_report_or_error(Q(moved), p, K)) == _chart_free_state(
        _report_or_error(Q(ints), p, K)
    )


@st.composite
def _simple_roots_and_prime(draw):
    """(ints, p), p 3 or 5: n = 2 to 4 linear forms b t - a u, b a unit
    and a / b distinct mod p, so simple roots of the reduction, times a
    form of degree 4 - n whose top m coefficients, m from 1 to 3 where
    that degree leaves room, are divisible by p: [1:0] is then a root of
    multiplicity at least m mod p."""
    p = draw(st.sampled_from([3, 5]))
    n = draw(st.integers(2, min(4, p)))
    form = [1]
    for r in draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n, unique=True)):
        b = draw(st.integers(1, 20).filter(lambda b: b % p))
        a = r * b % p + p * draw(st.integers(-20, 20))
        form = _times(form, [-a, b])
    rest = 4 - n
    m = draw(st.integers(min(1, rest), min(3, rest)))
    low = draw(st.lists(st.integers(-30, 30), min_size=rest - m, max_size=rest - m))
    unit = draw(st.integers(1, 30))
    high = [p * draw(st.integers(-5, 5)) for _ in range(m)]
    return _times(form, low + [unit] + high), p


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.one_of(_quartic_and_prime(), _simple_roots_and_prime()),
    st.one_of(st.integers(1, 30), st.sampled_from([1, 2, 3, 5, 8, 60])),
)
@example(([1, 0, 0, 0, 3], 3), 5)
@example(([1, 0, 1, 0, 27], 3), 12)
# t (t - u)(t + u)(t - 2u) mod 5: four simple roots, none at [1:0]
@example(([0, 2, -1, -2, 1], 5), 60)
# (t - u)(t + u) u^2 + 3 t^4 mod 3: two simple roots and a (linear)^2
# block at [1:0], which no Newton iteration lifts
@example(([-1, 0, 1, 0, 3], 3), 8)
def test_the_lifted_blocks_multiply_back_to_the_monic_form(drawn, K):
    # oracle: the factorization of the monic form mod p^K into monic
    # affine blocks and a block at [1:0] that is 1 mod p, each block
    # reducing to its residue factor's power, is unique (Hensel); the
    # monic form is the quartic divided by its highest coefficient that
    # is a unit mod p, and each block has its degree.  Once the simple
    # roots are divided out at most two blocks are left, so one lift
    # makes at most one pair lift
    ints, p = drawn
    assume(any(ints))
    with pytest.MonkeyPatch.context() as patch:
        pair_lifts = _pair_lifts_per_lift(patch)
        report = _report_or_error(Q(ints), p, K)
        assume(not isinstance(report, PrecisionError))
        lifted = report.lift(K)
    assert pair_lifts and max(pair_lifts) <= 1
    mod = p**K
    ics = Q(ints).coeffs
    top = max(i for i, c in enumerate(ics) if c % p)
    lc_inv = pow(ics[top], -1, mod)
    product = [1]
    for B in lifted:
        product = _times(product, B)
    assert [c % mod for c in product] == [c * lc_inv % mod for c in ics]
    by_index = sorted(report.blocks, key=lambda blk: blk.index)
    assert [len(B) - 1 for B in lifted] == [blk.degree for blk in by_index]
    parts = factor_monic_mod_p(pmod([c * lc_inv for c in ics], p), p)
    assert len(lifted) == len(parts) + (top < 4)
    for B, (g, mult) in zip(lifted, parts):
        power = [1]
        for _ in range(mult):
            power = pmul(power, list(g), p)
        assert B[-1] == 1 and pmod(B, p) == power
    if top < 4:
        at_infinity = lifted[-1]
        assert len(at_infinity) == 5 - top
        assert pmod(at_infinity, p) == [1]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.sampled_from([3, 5, 7]),
    st.lists(st.integers(-50, 50), min_size=2, max_size=5),
    st.integers(1, 6),
)
@example(3, [-2, 0, 1], 6)
def test_newton_root_is_the_one_root_above_a_simple_residue_root(p, f, K):
    # oracle: a scan of the p^(K-1) residues mod p^K above each simple
    # root r0 mod p finds exactly one root of f there (Hensel)
    assume(p**K <= 20000)
    df = [i * c for i, c in enumerate(f)][1:]
    simple = [r for r in range(p) if peval(f, r, p) == 0 and peval(df, r, p)]
    assume(simple)
    mod = p**K
    for r0 in simple:
        roots = [r for r in range(r0, mod, p) if peval(f, r, mod) == 0]
        assert roots == [hensel.newton_root(f, r0, p, K)]


@pytest.mark.parametrize("K", [1, 2, 12])
def test_the_last_simple_root_is_lifted_by_division_alone(monkeypatch, K):
    # (x - 1)(x - 2)(x - 3)(x - 4) + 5 (x^3 + 1): four simple roots mod
    # 5, three Newton-lifted; the quotient left is the fourth root's
    # lift, the one Newton's iteration would give
    split = _times(_times([-1, 1], [-2, 1]), _times([-3, 1], [-4, 1]))
    f = [c + 5 * n for c, n in zip(split, [1, 0, 0, 1, 0])]
    newton = hensel.newton_root
    roots = []

    def recording(*args):
        roots.append(args)
        return newton(*args)

    monkeypatch.setattr(hensel, "newton_root", recording)
    parts = factor_monic_mod_p(pmod(f, 5), 5)
    lifted = hensel.hensel_lift_factors(f, parts, 5, K)
    assert [len(g) for g, _ in parts] == [2, 2, 2, 2] and len(roots) == 3
    assert lifted[-1] == [-newton(f, -parts[-1][0][0], 5, K) % 5**K, 1]
    product = [1]
    for g in lifted:
        product = _times(product, g)
    assert pmod(product, 5**K) == pmod(f, 5**K)


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
    # Zassenhaus lifts once, and the factors mod p left once the simple
    # roots are divided out have degree >= 2 each, so at most two are
    # left, split by at most one pair lift
    with pytest.MonkeyPatch.context() as patch:
        pair_lifts = _pair_lifts_per_lift(patch)
        got = hensel.factor_squarefree_int(product)
    assert len(pair_lifts) <= 1 and sum(pair_lifts) <= 1
    assert got == sorted(factors, key=lambda h: (len(h), h))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.lists(_irreducible_int(1), min_size=4, max_size=4, unique_by=tuple),
    st.sampled_from([1, -1, 3, -35]),
)
@example([[0, 1], [1, 1], [-1, 1], [2, 1]], 1)
def test_factor_squarefree_int_splits_four_linear_forms(factors, scale):
    # oracle: the four constructed linear forms; each is a simple root
    # mod the prime Zassenhaus lifts at, so each is lifted by Newton
    # iteration, and every pair lift is refused
    product = [scale]
    for g in factors:
        product = _times(product, g)

    def refused(*args):
        raise AssertionError("a simple root went through hensel_pair_lift")

    lift = hensel.hensel_pair_lift
    hensel.hensel_pair_lift = refused
    try:
        got = hensel.factor_squarefree_int(product)
    finally:
        hensel.hensel_pair_lift = lift
    assert got == sorted(factors, key=lambda h: (len(h), h))


def test_factor_squarefree_int_of_a_constant_is_no_factor():
    # a constant has no factor of positive degree, not the factor 1
    assert hensel.factor_squarefree_int([5]) == []


def test_factorization_refuses_a_wrong_prime_degree_or_precision():
    q = Q([-1, -1, 0, 0, 1])
    with pytest.raises(HmsError, match="odd p"):
        hensel_factor_quartic(q, 2, 8)
    with pytest.raises(HmsError, match="precision must be positive"):
        hensel_factor_quartic(q, 5, 0)
    with pytest.raises(HmsError, match="degree <= 4"):
        factor_monic_mod_p([1, 0, 0, 0, 0, 1], 5)
    with pytest.raises(HmsError, match="monic"):
        factor_monic_mod_p([1, 0, 2], 5)
    with pytest.raises(HmsError, match="precision must be positive"):
        hensel.hensel_lift_factors([4, 0, 1], [([1, 1], 1), ([4, 1], 1)], 5, 0)


def test_factor_squarefree_int_refuses_a_square_factor():
    # (x + 1)^2 (x + 2) and (x^2 + 1)^2: every prime divides the zero
    # discriminant, so the rejected primes pass Mahler's bound at once
    for f in ([2, 5, 4, 1], [1, 0, 2, 0, 1]):
        with pytest.raises(HmsError, match="not squarefree"):
            hensel.factor_squarefree_int(f)


def _divides(g, f):
    """Whether the binary form g divides the binary form f over Q: u
    divides f at least as often as g, and g(t, 1) divides f(t, 1), by
    long division on Fractions."""
    a, b = trim(f), trim(g)
    if len(g) - len(b) > len(f) - len(a):
        return False
    rest = [Fraction(c) for c in a]
    while len(rest) >= len(b):
        q, shift = rest[-1] / b[-1], len(rest) - len(b)
        for i, c in enumerate(b):
            rest[i + shift] -= q * c
        rest = trim(rest)
    return not rest


@PROPERTY
@given(
    st.integers(0, 2).flatmap(_primitive_form),
    st.integers(0, 2).flatmap(_primitive_form),
    st.integers(0, 3).flatmap(_primitive_form),
)
@example([0, 1], [1, 0, 0], [0, 0, 1, 0])
@example([1, 0], [1, 0], [1, 1, 0, 0])
@example([-2, 1], [1], [3, 0, 0, 1])
def test_binary_gcd_is_a_primitive_common_factor_over_q(h, a, b):
    # oracle: h a and h b are divided by their gcd, which h divides,
    # each as binary forms, so that a common root at [1 : 0] counts
    f, g = _times(h, a), _times(h, b)
    assume(any(f) and len(f) <= len(g))
    got = hensel.binary_gcd(f, g)
    assert gcd(*got) == 1 and trim(got)[-1] > 0
    assert _divides(got, f) and _divides(got, g) and _divides(h, got)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.one_of(
        st.tuples(*[_primitive_form(1)] * 4),
        st.tuples(_primitive_form(1), _primitive_form(1), _primitive_form(2)),
        st.tuples(_double_of_chosen_valuation(), _primitive_form(1), _primitive_form(1)),
        st.tuples(_double_of_chosen_valuation(), _primitive_form(2)),
    ),
    st.lists(st.booleans(), min_size=4, max_size=4),
    st.lists(st.tuples(st.sampled_from("TS"), st.integers(-3, 3)), max_size=4),
    st.sampled_from([3, 5]),
)
# t u (t - u)(t + u) vanishes on all of P^1(F_3): a block at [1 : 0]
@example(([0, 1], [1, 0], [-1, 1], [1, 1]), [False, True, False, True], [], 3)
# (t^2 - 15 u^2) u (t + u): a (linear)^2 block, and a top coefficient 0
@example(([-15, 0, 1], [1, 0], [1, 1]), [True, True, False, False], [], 5)
def test_the_roots_of_a_factor_are_counted_in_their_blocks(factors, chosen, steps, p):
    # oracle: a quartic's roots reducing into a block are the block's
    # roots, and a factor g of the quartic with cofactor h splits them:
    # per block, the counts of g and h add up to the block's degree
    mat = _sl2_product(steps)
    g, h = [1], [1]
    for form, take in zip(factors, chosen):
        if take:
            g = _times(g, form)
        else:
            h = _times(h, form)
    ints = compose_binary(_times(g, h), mat)
    assume(Q(ints).discriminant() != 0)
    try:
        rep = hensel_factor_quartic(Q(ints), p, 12)
    except PrecisionError:
        assume(False)
    g, h = compose_binary(g, mat), compose_binary(h, mat)
    for blk in rep.blocks:
        counts = [rep.roots_reducing_into(f, blk) for f in (ints, g, h)]
        assert counts[0] == counts[1] + counts[2] == blk.degree
