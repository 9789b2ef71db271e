import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hmslines.errors import HmsError
from hmslines.padics import UnramifiedRing, padd, pdivmod, pevalmod, pext_euclid, psub, trim


def Zp(p, K):
    """Z/p^K as the degree-1 unramified ring."""
    return UnramifiedRing(p, (0, 1), K)


def embed(R, x):
    """The element of R of a rational x whose denominator is prime to p:
    its numerator times the inverse of its denominator mod p^K."""
    x = Fraction(x)
    return R.elt([x.numerator * pow(x.denominator, -1, R.mod)])


def test_lift_tracks_exact_valuation():
    assert embed(Zp(3, 6), Fraction(45, 7)).valuation() == 2


def test_addition_respects_ultrametric():
    R = Zp(5, 6)
    a = embed(R, 25)
    b = embed(R, 5)
    assert (a + b).valuation() == 1
    # cancellation: the sum of x and -x is zero at the working precision
    assert (a + (-a)).valuation() is None


def test_multiplication_adds_valuations():
    R = Zp(3, 8)
    a = embed(R, Fraction(6, 5))
    b = embed(R, Fraction(9, 2))
    assert (a * b).valuation() == 3
    assert (a * a).valuation() == 2


def test_arithmetic_matches_rational_reduction():
    # compute (3/4 + 7) * 5/2 both exactly and in Z/7^8
    R = Zp(7, 8)
    exact = (Fraction(3, 4) + 7) * Fraction(5, 2)
    got = (embed(R, Fraction(3, 4)) + 7) * embed(R, Fraction(5, 2))
    assert got == embed(R, exact)
    assert (got - embed(R, exact)).valuation() is None


def test_zero_at_has_indeterminate_valuation():
    assert Zp(5, 4).zero().valuation() is None


def test_valuation_monotone_under_precision_refinement():
    # the same rational at two precisions: a determined valuation is
    # the same at both, and an undetermined one is at least the ring's K
    for num, den in [(10, 3), (9, 7), (250, 7), (1, 2), (5**7, 3)]:
        x = Fraction(num, den)
        lo = embed(Zp(5, 3), x).valuation()
        hi = embed(Zp(5, 9), x).valuation()
        if lo is None:
            assert 3 <= hi
        else:
            assert lo == hi


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    st.sampled_from([(3, (0, 1)), (3, (1, 0, 1)), (5, (0, 1)), (5, (2, 0, 1))]),
    st.integers(1, 6),
    st.data(),
)
def test_a_valuation_is_below_k_or_none_on_zero_mod_p_to_the_k(ring, K, data):
    # what the cusp depth rests on: a determined valuation is below K,
    # and None stands for exactly the elements that are 0 mod p^K
    p, modulus = ring
    R = UnramifiedRing(p, modulus, K)
    digits = st.integers(0, 3).flatmap(
        lambda k: st.integers(-(p**6), p**6).map(lambda n: n * p**k)
    )
    x = R.elt(data.draw(st.lists(digits, min_size=R.deg, max_size=R.deg)))
    v = x.valuation()
    if v is None:
        assert all(c % p**K == 0 for c in x.coeffs)
    else:
        assert 0 <= v < K
        assert all(c % p**v == 0 for c in x.coeffs)
        assert any(c % p ** (v + 1) for c in x.coeffs)


def test_unramified_ring_generator_satisfies_modulus():
    # Z_5[t]/(t^2 - 2) mod 5^6
    R = UnramifiedRing(5, [-2, 0, 1], 6)
    t = R.gen()
    assert t * t == embed(R, Fraction(2))


def test_unramified_ring_rational_embedding():
    R = UnramifiedRing(5, [-2, 0, 1], 6)
    a = embed(R, Fraction(3, 7))
    b = embed(R, Fraction(7))
    assert a * b == embed(R, Fraction(3))
    # a rational operand is not coerced: elements come from ints only
    half = Fraction(1, 2)
    for op in (operator.add, operator.sub, operator.mul, lambda x, y: y - x):
        with pytest.raises(TypeError):
            op(a, half)
    assert not a == half


def test_unramified_valuation_is_min_over_coordinates():
    R = UnramifiedRing(5, [-2, 0, 1], 6)
    t = R.gen()
    x = t * 25 + 5
    assert x.valuation() == 1
    zero = x - x
    assert zero.valuation() is None


def test_unramified_ring_rejects_non_monic_modulus():
    with pytest.raises(HmsError):
        UnramifiedRing(5, [1, 0, 2], 4)


def test_unramified_ring_refuses_what_it_cannot_represent():
    with pytest.raises(HmsError, match="precision must be positive"):
        UnramifiedRing(5, [-2, 0, 1], 0)
    with pytest.raises(HmsError, match="no generator"):
        Zp(5, 3).gen()
    t = UnramifiedRing(5, [-2, 0, 1], 6).gen()
    with pytest.raises(HmsError, match="mixed"):
        t + UnramifiedRing(5, [-2, 0, 1], 5).gen()
    with pytest.raises(HmsError, match="negative powers"):
        t**-1


def test_extended_euclid_refuses_a_common_factor():
    # x (x + 1) and x share the factor x mod 5
    with pytest.raises(HmsError, match="not coprime"):
        pext_euclid([0, 1, 1], [0, 1], 5)


def _has_root_mod_p(modulus, p):
    return any(
        sum(c * r**i for i, c in enumerate(modulus)) % p == 0 for r in range(p)
    )


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.integers(1, 3), st.data())
def test_precision_one_rings_are_finite_fields(p, d, data):
    # a monic modulus of degree <= 3 without roots mod p is irreducible,
    # so the ring at precision 1 is F_{p^d}
    digits = st.lists(st.integers(0, p - 1), min_size=d, max_size=d)
    modulus = tuple(data.draw(digits)) + (1,)
    assume(d == 1 or not _has_root_mod_p(modulus, p))
    F = UnramifiedRing(p, modulus, 1)
    x, y = F.elt(data.draw(digits)), F.elt(data.draw(digits))
    assert x ** (p**d) == x
    assert (x + y) ** p == x**p + y**p
    assert (x * y) ** p == x**p * y**p


def test_f25_generator_is_a_square_root_of_minus_3():
    w = UnramifiedRing(5, (3, 0, 1), 1).gen()
    assert w * w == -3


def _product_mod(f, g, modulus, n):
    """Oracle: the integer product of f and g, reduced by long division
    against the monic modulus over Z, then mod n."""
    prod = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            prod[i + j] += a * b
    d = len(modulus) - 1
    for top in range(len(prod) - 1, d - 1, -1):
        c = prod[top]
        for j, m in enumerate(modulus):
            prod[top - d + j] -= c * m
    return tuple(c % n for c in prod[:d])


def _is_reduced(x, ring):
    return len(x.coeffs) == ring.deg and all(0 <= c < ring.mod for c in x.coeffs)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    st.sampled_from([3, 5, 7]),
    st.integers(1, 6),
    st.integers(1, 3),
    st.integers(0, 6),
    st.data(),
)
def test_arithmetic_matches_integer_oracle(p, K, d, k, data):
    # any monic modulus will do for the arithmetic: the oracle needs no
    # irreducibility, and coordinates come in unreduced
    coords = st.lists(st.integers(-(10**6), 10**6), min_size=d, max_size=d)
    modulus = data.draw(coords) + [1]
    R = UnramifiedRing(p, modulus, K)
    x, y = R.elt(data.draw(coords)), R.elt(data.draw(coords))
    num = data.draw(st.integers(-(10**6), 10**6))
    den = data.draw(st.integers(1, 10**3).filter(lambda n: n % p))
    r = embed(R, Fraction(num, den))
    assert (x * y).coeffs == _product_mod(x.coeffs, y.coeffs, modulus, R.mod)
    power = R.one()
    for _ in range(k):
        power = power * x
    assert x**k == power
    for z in (x, y, r, x + y, x - y, -x, x * y, x * 7, 7 - x, x**k, R.zero(), R.one()):
        assert _is_reduced(z, R)


def _long_division(f, g, n):
    """Oracle: long division of f by g over Z, each quotient digit the
    leading coefficient times lc(g)^-1 mod n, then (q, r) mod n, trimmed."""
    f, inv = list(f), pow(g[-1], -1, n)
    q = [0] * max(0, len(f) - len(g) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = f[k + len(g) - 1] * inv % n
        for j, b in enumerate(g):
            f[k + j] -= q[k] * b
    return trim([c % n for c in q]), trim([c % n for c in f[: len(g) - 1]])


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.integers(1, 6), st.data())
def test_pdivmod_matches_integer_long_division(p, k, data):
    # reduced, trimmed inputs, as the kernel hands them on; lc(g) a unit
    n = p**k
    f = trim(data.draw(st.lists(st.integers(0, n - 1), max_size=8)))
    g = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5))
    assume(g[-1] % p)
    q, r = pdivmod(tuple(f), g, n)
    assert (q, r) == _long_division(f, g, n)
    assert len(r) < len(g)
    # the caller's list is left as it was
    frozen = list(f)
    pdivmod(f, g, n)
    assert f == frozen


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.integers(1, 8), st.integers(1, 3), st.data())
def test_sums_and_differences_match_int_arithmetic(p, k, d, data):
    # oracle: plain int arithmetic mod p^k on each coordinate, padded
    # with zeros and trimmed; an int moves only the constant coordinate
    n = p**k
    coords = st.lists(st.integers(-(10**9), 10**9), max_size=6)
    f, g = data.draw(coords), data.draw(coords)
    pad = max(len(f), len(g))
    f0, g0 = f + [0] * (pad - len(f)), g + [0] * (pad - len(g))
    assert padd(f, g, n) == trim([(a + b) % n for a, b in zip(f0, g0)])
    assert psub(f, g, n) == trim([(a - b) % n for a, b in zip(f0, g0)])
    modulus = data.draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d)) + [1]
    x = UnramifiedRing(p, modulus, k).elt(data.draw(coords))
    c = data.draw(st.integers(-(10**12), 10**12))
    rest = x.coeffs[1:]
    assert (x + c).coeffs == ((x.coeffs[0] + c) % n, *rest) == (c + x).coeffs
    assert (x - c).coeffs == ((x.coeffs[0] - c) % n, *rest)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.integers(1, 8), st.integers(1, 4), st.data())
def test_pevalmod_is_the_horner_loop_of_ring_elements(p, K, d, data):
    # oracle: the Horner loop on ring elements, one element per step,
    # that evaluated the 5-adic forms before the kernel pass; a constant
    # x, in any ring, is one integer Horner pass, and the generator one
    # remainder by the modulus
    modulus = data.draw(st.lists(st.integers(-(10**6), 10**6), min_size=d, max_size=d))
    R = UnramifiedRing(p, modulus + [1], K)
    coords = st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=d)
    xs = [R.elt(data.draw(coords)), R.elt(data.draw(coords)[:1]), R.zero()]
    for x in xs + ([R.gen()] if d >= 2 else []):
        f = data.draw(st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=9))
        acc = R.elt([f[-1]])
        for c in reversed(f[:-1]):
            acc = acc * x + c
        assert R.elt(pevalmod(f, trim(x.coeffs), R.modulus, R.mod)) == acc
