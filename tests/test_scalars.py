import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from hmslines.errors import HmsError

from hmslines.scalars import (
    integer_numerators,
    primitive_integers,
    split_p_power,
    sup_norm_shell,
    valuation_of_rational,
)
from hmslines.padics import UnramifiedRing

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)
PRIMES = st.sampled_from([2, 3, 5, 7])
RATIONALS = st.fractions(-(10**6), 10**6, max_denominator=10**6)


# finite fields are unramified rings at precision 1
def test_prime_field_arithmetic():
    F = UnramifiedRing(7, (0, 1), 1)
    a = F.elt([3])
    b = F.elt([5])
    assert a + b == F.elt([1])
    assert a * b == F.elt([1])
    assert a - b == F.elt([-2])
    # b^(7 - 2) is the inverse of b
    assert b ** (7 - 2) * b == F.one()


def F25():
    """F_25 = F_5[w]/(w^2 + 3): w is a square root of -3."""
    return UnramifiedRing(5, (3, 0, 1), 1)


def test_f25_generator_squares_to_nonresidue():
    F = F25()
    w = F.gen()
    # -3 = 2 mod 5 is a quadratic nonresidue
    assert w * w == F.elt([2])


def test_f25_frobenius_is_field_automorphism():
    F = F25()
    x = F.elt([2, 3])
    y = F.elt([1, 4])
    # x -> x^5 is additive and multiplicative, fixes F_5, has order 2
    # and sends w to -w on the basis 1, w
    assert (x + y) ** 5 == x**5 + y**5
    assert (x * y) ** 5 == x**5 * y**5
    assert F.elt([3]) ** 5 == F.elt([3])
    assert (x**5) ** 5 == x
    assert x**5 == F.elt([2, -3])


def test_f25_omega_has_order_three():
    F = F25()
    # omega = (-1 + w)/2, and 1/2 = 3 mod 5
    om = F.elt([-3, 3])
    assert om != F.one()
    assert om * om * om == F.one()
    assert om * om + om + F.one() == F.zero()


def test_split_p_power_refuses_zero():
    # every power of p divides 0
    with pytest.raises(HmsError, match="exact zero"):
        split_p_power(0, 3)


@PROPERTY
@given(st.integers(-(10**9), 10**9).filter(bool), PRIMES, st.integers(0, 12))
def test_split_p_power_adds_exponents(n, p, k):
    v, unit = split_p_power(n, p)
    assert unit % p != 0
    assert n == p**v * unit
    assert split_p_power(n * p**k, p) == (v + k, unit)


@PROPERTY
@given(RATIONALS.filter(bool), PRIMES, st.integers(-12, 12))
def test_valuation_of_rational_adds_exponents(x, p, k):
    v = valuation_of_rational(x, p)
    assert valuation_of_rational(x * Fraction(p) ** k, p) == v + k
    unit = x / Fraction(p) ** v
    assert unit.numerator % p != 0
    assert unit.denominator % p != 0


@PROPERTY
@given(st.lists(RATIONALS, min_size=1, max_size=6).filter(any))
def test_primitive_integers_is_a_positive_multiple_with_content_one(values):
    ints = primitive_integers(values)
    assert gcd(*ints) == 1
    i = next(k for k, x in enumerate(values) if x)
    ratio = Fraction(ints[i]) / values[i]
    assert ratio > 0
    assert [Fraction(c) for c in ints] == [ratio * x for x in values]


def test_sup_norm_shell_is_the_filtered_cube():
    # the reference: the whole (2r+1)^3 cube in lexicographic order,
    # filtered to sup norm r and to the box
    rng = random.Random(0)
    for r in range(9):
        boxes = [[range(-r, r + 1)] * 3]
        for _ in range(20):
            ends = [sorted(rng.randint(-10, 10) for _ in range(2)) for _ in range(3)]
            boxes.append([range(lo, hi + rng.randint(0, 1)) for lo, hi in ends])
        for box in boxes:
            cube = product(range(-r, r + 1), repeat=3)
            want = [
                t
                for t in cube
                if max(map(abs, t)) == r and all(c in axis for c, axis in zip(t, box))
            ]
            assert list(sup_norm_shell(r, box)) == want


@PROPERTY
@given(
    st.lists(
        st.one_of(st.integers(-(10**12), 10**12), RATIONALS, st.booleans()),
        min_size=1,
        max_size=6,
    )
)
@example([7, -12, 0])
@example([Fraction(1, 2), Fraction(-2, 3)])
@example([4, Fraction(5, 6), True])
@example([True, False, 3])
def test_integer_numerators_against_the_fraction_path(values):
    # oracle: the values read as Fractions, their least common
    # denominator and each value times it; a bool comes back an int
    fractions = [Fraction(x) for x in values]
    den = lcm(*(x.denominator for x in fractions))
    d, ints = integer_numerators(values)
    assert (d, ints) == (den, [int(x * den) for x in fractions])
    assert type(d) is int and all(type(c) is int for c in ints)
