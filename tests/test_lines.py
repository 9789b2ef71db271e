import json
import random
from fractions import Fraction
from functools import cache
from hashlib import sha256
from importlib import resources
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hmslines import lines, mpoly, verify
from hmslines.errors import (
    DegenerateLineError,
    HmsError,
    NotOnSurfaceError,
    PrecisionError,
)
from hmslines.lines import (
    Line,
    TangentConeChart,
    chord_at,
    cusp_proximity,
    in_quadrics,
    labc_line,
    labc_params_of_line,
    parity_admissible,
    primitive_vector,
    quartic_of_line,
    rational_conic_point,
)
from hmslines.mpoly import SparsePoly, restrict_to_span
from hmslines.padics import UnramifiedRing
from hmslines.quartics import real_root_count
from hmslines.scalars import integer_numerators
from hmslines.search import (
    _candidate_params,
    _combined_parameters,
    build_model,
    certify_line,
    find_lines,
    load_config,
    parse_config,
)
from hmslines.surface import (
    gram_matrix,
    linear_row,
    rho0_twist,
    twist_by_name,
    twisted_equations,
)
from hmslines.verify import (
    char3_leading_profile,
    char3_quartic_display,
    coefficient_valuations,
)

from exact_oracles import chord_rule, evaluate, rref, sigma_exponents

F = Fraction

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)

RHO0_SEED = (F(-1), F(0), F(1), F(-1), F(-1), F(1))


def rho0_model():
    return twisted_equations(rho0_twist())


def char3_model(l1=1, l2=1):
    return twisted_equations(twist_by_name("char3-x", l1, l2))


def vanishes_on(f, line):
    """Whether the hypersurface f = 0 contains the line, by the
    ring-generic `restrict_to_span`: any form, any coefficients."""
    return restrict_to_span(f, line.ints).is_zero


def test_line_canonical_form_and_equality():
    a = Line([(2, 0, 4, 0, 0, 0), (0, 3, 3, 0, 0, 0)])
    b = Line([(2, 3, 7, 0, 0, 0), (4, -3, 5, 0, 0, 0)])
    assert a == b
    assert a.rows[0][0] == 1 and a.rows[1][1] == 1
    assert a.pivots == (0, 1)
    pt = [F(5) * p + F(-2) * q for p, q in zip(*a.rows)]
    assert a.contains(pt)
    assert not a.contains((1, 0, 0, 0, 0, 1))


def rank(rows):
    return len(rref(rows)[1])


@PROPERTY
@given(st.data())
def test_line_contains_agrees_with_rank(data):
    ints = st.integers(-6, 6)
    P, Q = (data.draw(st.lists(ints, min_size=6, max_size=6)) for _ in range(2))
    assume(rank([P, Q]) == 2)
    line = Line([P, Q])
    t, u = (data.draw(st.builds(F, ints, st.integers(1, 5))) for _ in range(2))
    point = [t * p + u * q for p, q in zip(P, Q)]
    assert line.contains(point)
    shift = data.draw(st.builds(F, ints, st.integers(1, 5)))
    point[data.draw(st.integers(0, 5))] += shift
    assert line.contains(point) == (rank([P, Q, point]) == 2)


RATIONAL = st.one_of(st.just(F(0)), st.builds(F, st.integers(-9, 9), st.integers(1, 6)))
NONZERO = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 6))


@PROPERTY
@given(st.data())
def test_line_basis_is_the_scaled_rref(data):
    P, Q = (data.draw(st.lists(RATIONAL, min_size=6, max_size=6)) for _ in range(2))
    for j in data.draw(st.sets(st.integers(0, 5), max_size=3)):
        P[j] = Q[j] = F(0)
    if data.draw(st.booleans()):
        # the minor at columns (0, 1) vanishes
        k = data.draw(RATIONAL)
        Q[0], Q[1] = k * P[0], k * P[1]
    assume(rank([P, Q]) == 2)
    line = Line([P, Q])
    R, pivots = rref([P, Q])
    assert line.rows == tuple(map(tuple, R))
    assert line.pivots == tuple(pivots)
    den, ints = integer_numerators(R[0] + R[1])
    assert (line.den, line.ints) == (den, (tuple(ints[:6]), tuple(ints[6:])))
    k, m = data.draw(RATIONAL), data.draw(NONZERO)
    assert Line([[p + k * q for p, q in zip(P, Q)], [m * q for q in Q]]) == line


def test_line_rejects_bad_spans():
    with pytest.raises(DegenerateLineError):
        Line([(1, 2, 3, 4, 5, 6), (2, 4, 6, 8, 10, 12)])
    with pytest.raises(HmsError):
        Line([(1, 0, 0), (0, 1, 0)])


def test_primitive_vector():
    assert primitive_vector((F(-2, 3), F(4, 9), F(0))) == (3, -2, 0)
    assert primitive_vector((0, F(5), F(10))) == (0, 1, 2)
    with pytest.raises(HmsError):
        primitive_vector((0, 0, 0))


def test_line_through_coordinate_line():
    ln = Line([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)])
    assert ln.rows == (
        (1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0),
    )
    with pytest.raises(DegenerateLineError):
        Line([(1, 2, 0, 0, 0, 0), (2, 4, 0, 0, 0, 0)])


def test_real_line_contains_published_point():
    model = rho0_model()
    chart = TangentConeChart(model, RHO0_SEED)
    line = chart.line_at(F(2), F(1, 16), F(3))
    assert line.contains((F(7, 15), F(-1), F(4, 5), F(0), F(-2), F(-8, 15)))
    assert vanishes_on(model.q1, line)
    assert vanishes_on(model.q2, line)
    assert not vanishes_on(SparsePoly(6, sigma_exponents(2)), line)


def test_real_line_chart_coordinates():
    chart = TangentConeChart(rho0_model(), RHO0_SEED)
    line = chart.line_at(F(2), F(1, 16), F(3))
    assert line.rows == (
        (F(1), F(0), F(-3, 4), F(3, 4), F(0), F(-1, 2)),
        (F(0), F(1), F(-23, 20), F(7, 20), F(2), F(3, 10)),
    )
    assert line.primitive_rows() == ((4, 0, -3, 3, 0, -2), (0, 20, -23, 7, 40, 6))
    assert chart.params_of(line) == (F(2), F(1, 16), F(3))


def test_real_line_quartic():
    model = rho0_model()
    chart = TangentConeChart(model, RHO0_SEED)
    line = chart.line_at(F(2), F(1, 16), F(3))
    q = quartic_of_line(line, model)
    # the quartic on line.ints is den^4 times the published one on the rows
    assert line.den == 20
    assert all(type(c) is int for c in q.coeffs)
    assert [F(q.content * c, line.den**4) for c in q.coeffs] == [
        F(-3993, 500), F(663, 125), F(1017, 50), F(39, 5), F(3, 4)
    ]
    assert real_root_count(q) == 4


def test_quartic_of_line_requires_quadric_containment():
    model = rho0_model()
    off = Line([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)])
    with pytest.raises(NotOnSurfaceError):
        quartic_of_line(off, model)


def demo_chart_lines():
    """(model, line) pairs from the rho0-demo and char3-demo charts."""
    rho0 = rho0_model()
    chart = TangentConeChart(rho0, RHO0_SEED)
    rho0_params = ((F(2), F(1, 16), F(3)), (F(1), F(17, 16), F(-2, 3)), (F(3), 0, F(4)))
    for params in rho0_params:
        yield rho0, chart.line_at(*params)
    char3 = char3_model()
    for params in ((3, 243, 243), (F(84), F(162), F(-81)), (F(2, 7), F(-5, 3), F(11))):
        yield char3, labc_line(*params)


def _chart_outcomes():
    """One text line per chart candidate: its `line_at` rows, or the
    exception class it raises, then the same for `params_of` on the line."""
    cfg = load_config(str(resources.files("hmslines").joinpath("configs/rho0-demo.json")))
    chart = TangentConeChart(build_model(cfg), list(cfg.seed_point))
    shell = _candidate_params(*_combined_parameters(cfg), cfg.height_bound)
    triples = [next(shell) for _ in range(151)]
    triples += [(a, 0, c) for a in range(-3, 4) for c in range(-3, 4)]
    triples += [
        (F(2 + i), F(1, 16) + j, F(3 + k))
        for i in range(-4, 5)
        for j in range(-3, 4)
        for k in range(-4, 5)
    ]
    found = []
    for triple in triples:
        try:
            found.append(chart.line_at(*triple))
        except HmsError as exc:
            yield f"{triple} {type(exc).__name__}"
            continue
        yield f"{triple} {found[-1].rows}"
    # lines off the surface: off q1, off q2, and off q2 through the seed
    seed = [F(c) for c in cfg.seed_point]
    found += [
        Line([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)]),
        Line(chart.frame0.U[:2]),
        Line([seed, chart.frame0.U[0]]),
        labc_line(3, 243, 243),
    ]
    for line in found:
        try:
            yield f"params {chart.params_of(line)}"
        except HmsError as exc:
            yield f"params {type(exc).__name__}"


def test_chart_outcomes_are_pinned():
    # every candidate of the rho0-demo shell, the b = 0 stratum and the
    # certify-batch window, failures included; the goldens see only
    # lines that pass
    text = "\n".join(_chart_outcomes())
    assert sha256(text.encode()).hexdigest() == (
        "afe8ba46ce33688fed680d9b634e0153e28cc71d68501e1e00eef4a558e11720"
    )


def test_quartic_of_line_matches_substitute_on_demo_charts():
    for model, line in demo_chart_lines():
        restricted = mpoly.restrict_to_span(model.q4, line.ints)
        want = [restricted.terms.get((i, 4 - i), 0) for i in range(5)]
        got = quartic_of_line(line, model)
        assert [(got.content * c, int) for c in got.coeffs] == [
            (c, type(c)) for c in want
        ]


def rref_kernel(rows):
    """(basis, free columns) of the kernel of rows, read off their RREF:
    basis vector k is 1 at free column k and 0 at the other free columns."""
    R, pivots = rref(rows)
    free = [j for j in range(len(rows[0])) if j not in pivots]
    basis = []
    for j in free:
        v = [F(int(k == j)) for k in range(len(rows[0]))]
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][j]
        basis.append(v)
    return basis, free


def test_cone_frame_conic_matches_substitute():
    # the seed's conic is U G U^T on integers, the Gram matrix of q2 on U
    model = rho0_model()
    chart = TangentConeChart(model, RHO0_SEED)
    U = chart.frame0.U
    conic = mpoly.restrict_to_span(model.q2, U)
    assert chart.conic == gram_matrix(conic)
    assert all(type(c) is int for row in chart.conic for c in row)
    assert evaluate(conic.terms, chart.c0) == 0
    # U is the RREF kernel basis of [q1; G seed] without the first free
    # column where the seed is nonzero, all of it scaled by one factor: a
    # factor per vector would move c0 and with it every chart line
    polar = [sum(g * x for g, x in zip(row, chart.seed)) for row in model.gram]
    kernel, free = rref_kernel([linear_row(model.q1), polar])
    jstar = next(k for k, j in enumerate(free) if chart.seed[j] != 0)
    old_U = [v for k, v in enumerate(kernel) if k != jstar]
    factor = next(u / v for u, v in zip(U[0], old_U[0]) if v)
    assert U == [[factor * c for c in v] for v in old_U]


def test_quartic_of_line_rejects_a_line_off_the_second_quadric():
    model = rho0_model()
    assert linear_row(model.q1) == [2, 0, 2, 0, 1, 1]
    off = Line([(0, 1, 0, 0, 0, 0), (-1, 0, 1, 0, 0, 0)])
    assert vanishes_on(model.q1, off) and not vanishes_on(model.q2, off)
    with pytest.raises(NotOnSurfaceError):
        quartic_of_line(off, model)


def test_restriction_multiplies_no_polynomials(monkeypatch):
    rho0, char3 = rho0_model(), char3_model()
    rho0_line = TangentConeChart(rho0, RHO0_SEED).line_at(F(2), F(1, 16), F(3))
    calls = []
    multiply = SparsePoly.__mul__

    def counting(self, other):
        calls.append(other)
        return multiply(self, other)

    monkeypatch.setattr(SparsePoly, "__mul__", counting)
    quartic_of_line(labc_line(3, 243, 243), char3)
    quartic_of_line(rho0_line, rho0)
    TangentConeChart(rho0, RHO0_SEED).line_at(F(1), F(2), F(3))
    assert calls == []


def test_restriction_commutes_with_evaluation():
    model = char3_model()
    line = labc_line(F(2), F(3), F(4))
    q = quartic_of_line(line, model)
    rng = random.Random(5)
    for _ in range(6):
        t = F(rng.randint(-9, 9), rng.randint(1, 4))
        u = F(rng.randint(-9, 9), rng.randint(1, 4))
        point = [t * x + u * y for x, y in zip(*line.rows)]
        # q is on line.ints, den^4 times the quartic on the rows
        coeffs = [F(q.content * c, line.den**4) for c in q.coeffs]
        value = sum(c * t**i * u ** (4 - i) for i, c in enumerate(coeffs))
        assert value == evaluate(model.q4.terms, point)


def test_chart_roundtrip_is_exact_off_the_seed():
    chart = TangentConeChart(rho0_model(), RHO0_SEED)
    triples = [
        (F(2), F(1, 16), F(3)),
        (F(1), F(1), F(0)),
        (F(3), F(2), F(1)),
        (F(-1), F(1, 2), F(2)),
        (F(5), F(-2, 3), F(-1)),
        (F(-2), F(3), F(1, 4)),
        (F(0), F(-1, 3), F(5)),
        (F(0), F(2), F(-1)),
    ]
    for abc in triples:
        line = chart.line_at(*abc)
        assert chart.params_of(line) == abc


SMALL = st.builds(F, st.integers(-30, 30), st.integers(1, 12))


@PROPERTY
@given(SMALL, st.one_of(st.just(F(0)), SMALL), SMALL)
def test_chart_round_trip(a, b, c):
    # exact off the seed; a line through the seed (b = 0) comes back as
    # a line, since its (a, c) are not unique
    chart = TangentConeChart(rho0_model(), RHO0_SEED)
    line = chart.line_at(a, b, c)
    if b != 0:
        assert chart.params_of(line) == (a, b, c)
    else:
        assert chart.line_at(*chart.params_of(line)) == line


def _near(centre, spread):
    """Parameters within spread of centre, each an int where integral or
    a Fraction either way, as the search and the certify path pass them."""
    value = st.builds(lambda n, d: centre + F(n, d), st.integers(-spread, spread),
                      st.sampled_from([1, 2, 3, 16]))
    return value.flatmap(lambda v: st.sampled_from(
        [v, int(v)] if v.denominator == 1 else [v]))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    st.lists(st.tuples(_near(2, 4), st.one_of(st.just(0), _near(F(1, 16), 2))),
             min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 3), _near(3, 6)), min_size=1, max_size=12),
)
def test_a_warm_chart_gives_what_a_fresh_chart_gives(rulings, picks):
    # one long-lived chart keeps the chord map of each ruling (a, b) it
    # meets; a fresh chart per candidate keeps nothing, and both must
    # give the same line, or raise the same exception class
    model = rho0_model()
    warm = TangentConeChart(model, RHO0_SEED)
    for k, c in picks:
        a, b = rulings[k % len(rulings)]
        outcomes = []
        for chart in (warm, TangentConeChart(model, RHO0_SEED)):
            try:
                outcomes.append(chart.line_at(a, b, c))
            except HmsError as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1]
        line = outcomes[0]
        if not isinstance(line, Line):
            continue
        if b != 0:
            assert warm.params_of(line) == (a, b, c)
        else:
            assert warm.line_at(*warm.params_of(line)) == line


def test_chart_refuses_a_line_off_the_second_quadric():
    # the line lies in q1 only: where it meets the seed's polar hyperplane
    # is off the cone, so no step b along a seed ruling reaches it
    model = rho0_model()
    off = Line([(3, 3, 3, -3, -6, -6), (-8, -1, 3, -2, 4, 6)])
    assert vanishes_on(model.q1, off) and not vanishes_on(model.q2, off)
    with pytest.raises(HmsError, match="base conic"):
        TangentConeChart(model, RHO0_SEED).params_of(off)


def test_chart_inverts_through_seed_lines_at_line_level():
    # lines through the seed live on a collapsed stratum: many (a, c)
    # pairs give the same ruling, so only the line itself comes back
    chart = TangentConeChart(rho0_model(), RHO0_SEED)
    for abc in [(F(2), F(0), F(3)), (F(-1), F(0), F(1, 2)), (F(0), F(0), F(4))]:
        line = chart.line_at(*abc)
        a, b, c = chart.params_of(line)
        assert b == 0
        assert chart.line_at(a, b, c) == line


def test_chart_lines_stay_in_the_quadrics():
    model = rho0_model()
    chart = TangentConeChart(model, RHO0_SEED)
    rng = random.Random(17)
    for _ in range(25):
        a = F(rng.randint(-8, 8), rng.randint(1, 5))
        b = F(rng.randint(-8, 8), rng.randint(1, 5))
        c = F(rng.randint(-8, 8), rng.randint(1, 5))
        line = chart.line_at(a, b, c)
        assert vanishes_on(model.q1, line)
        assert vanishes_on(model.q2, line)


@cache
def gram_cases():
    """(model, chart line_at) for both demo models."""
    rho0 = rho0_model()
    return {
        "rho0": (rho0, TangentConeChart(rho0, RHO0_SEED).line_at),
        "char3": (char3_model(), labc_line),
    }


@PROPERTY
@given(st.sampled_from(["rho0", "char3"]), SMALL, SMALL, SMALL, st.data())
def test_gram_test_agrees_with_the_restriction(which, a, b, c, data):
    # on a chart line, and on it with one row moved: off q1, along q1
    # (both models have q1_row[5] = 1) and so off q2, or to a row of
    # another chart line, where only the polar form B(P, Q) can fail
    model, line_at = gram_cases()[which]
    try:
        line, other = line_at(a, b, c), line_at(*(data.draw(SMALL) for _ in range(3)))
    except HmsError:
        assume(False)
    rows = [list(row) for row in line.ints]
    shift = data.draw(st.lists(st.integers(-2, 2), min_size=6, max_size=6))
    if data.draw(st.booleans()):
        shift[5] -= sum(x * y for x, y in zip(model.q1_row, shift))
    rows[0] = [x + y for x, y in zip(rows[0], shift)]
    candidates = [line]
    for moved in (rows, [rows[1], other.ints[0]]):
        try:
            candidates.append(Line(moved))
        except DegenerateLineError:
            pass
    for ln in candidates:
        on_both = vanishes_on(model.q1, ln) and vanishes_on(model.q2, ln)
        assert in_quadrics(ln, model) == on_both


# char3-demo lines on whose basis (P, Q) exactly one product is nonzero
ONE_PRODUCT_OFF = {
    "q1 . P": ((1, 0, -1, -1, 0, -1), (0, 1, 1, 0, 0, 0)),
    "q1 . Q": ((1, 0, 1, 0, 0, 0), (0, 1, -1, -1, 1, 0)),
    "P G P": ((1, 0, 0, -1, 1, -1), (0, 1, 1, 0, 0, 0)),
    "Q G Q": ((1, -1, 0, 0, -1, 1), (0, 0, 1, 1, 0, 0)),
    "P G Q": ((0, 1, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0)),
}


def test_each_gram_product_decides_alone():
    model = char3_model()

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    for name, rows in ONE_PRODUCT_OFF.items():
        line = Line(rows)
        P, Q = line.ints
        assert (P, Q) == rows
        GP, GQ = ([dot(row, v) for row in model.gram] for v in (P, Q))
        products = {
            "q1 . P": dot(model.q1_row, P),
            "q1 . Q": dot(model.q1_row, Q),
            "P G P": dot(P, GP),
            "Q G Q": dot(Q, GQ),
            "P G Q": dot(P, GQ),
        }
        assert [key for key, value in products.items() if value] == [name]
        assert not in_quadrics(line, model)
        assert not (vanishes_on(model.q1, line) and vanishes_on(model.q2, line))


def test_chart_needs_a_pencil_point():
    with pytest.raises(NotOnSurfaceError):
        TangentConeChart(rho0_model(), (1, 0, 0, 0, 0, 0))


def test_tangent_cone_lines_through_base_point():
    # b = 0 keeps the chart at the seed: each c is a ruling through it
    model = rho0_model()
    chart = TangentConeChart(model, RHO0_SEED)
    seen = []
    for c in (F(0), F(1), F(2), F(1, 2)):
        line = chart.line_at(F(1), F(0), c)
        assert line.contains(RHO0_SEED)
        assert vanishes_on(model.q1, line)
        assert vanishes_on(model.q2, line)
        seen.append(line)
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            assert seen[i] != seen[j]
            # the two rulings meet only at the base point
            stacked = [list(seen[i].rows[0]), list(seen[i].rows[1]), list(seen[j].rows[0]), list(seen[j].rows[1])]
            _, pivots = rref(stacked)
            assert len(pivots) == 3


def test_labc_cusp_line():
    model = char3_model()
    cusp = labc_line(0, 0, 0)
    assert cusp == Line([(0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)])
    assert vanishes_on(model.q1, cusp)
    assert vanishes_on(model.q2, cusp)
    assert vanishes_on(model.q4, cusp)
    with pytest.raises(DegenerateLineError, match="degree-8 locus"):
        quartic_of_line(cusp, model)


def test_labc_family_in_quadrics():
    model = char3_model()
    rng = random.Random(23)
    for _ in range(50):
        a = F(rng.randint(-20, 20), rng.randint(1, 7))
        b = F(rng.randint(-20, 20), rng.randint(1, 7))
        c = F(rng.randint(-20, 20), rng.randint(1, 7))
        line = labc_line(a, b, c)
        assert vanishes_on(model.q1, line)
        assert vanishes_on(model.q2, line)


def test_labc_parameter_recovery():
    # b = 0 and a = b c zero the first coordinate of P or of Q
    triples = [
        (F(2), F(3), F(4)),
        (F(-1, 2), F(0), F(7, 3)),
        (F(5), F(0), F(0)),
        (F(0), F(0), F(-4)),
        (F(6), F(2), F(3)),
        (F(-3, 4), F(1, 2), F(-3, 2)),
        (F(0), F(5, 3), F(0)),
    ]
    for abc in triples:
        assert labc_params_of_line(labc_line(*abc)) == abc
    stranger = Line([(1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0)])
    with pytest.raises(HmsError):
        labc_params_of_line(stranger)


def _rebuilt_labc_params(line):
    """The family check that the integer identities replaced: read
    (a, b, c) off the (1, 2) echelon, rebuild `labc_line` from them as
    Fractions and compare; the parameters, or None off the family."""
    u, v = line.ints
    if u[1] * v[2] == u[2] * v[1]:
        return None
    den, (P, Q) = lines._echelon(u, v, (1, 2))
    b, c = F(P[5], den), F(Q[5], den)
    a = F(Q[0], den) + b * c
    return (a, b, c) if labc_line(a, b, c) == line else None


def _labc_params_or_none(line):
    try:
        return labc_params_of_line(line)
    except HmsError:
        return None


RATIONALS = st.builds(F, st.integers(-40, 40), st.integers(1, 9))


@PROPERTY
@given(RATIONALS, RATIONALS, RATIONALS, st.booleans())
def test_the_family_identities_accept_every_labc_line(a, b, c, on_bc):
    if on_bc:
        a = b * c
    line = labc_line(a, b, c)
    assert labc_params_of_line(line) == _rebuilt_labc_params(line) == (a, b, c)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    RATIONALS,
    RATIONALS,
    RATIONALS,
    st.booleans(),
    st.sampled_from([0, 1]),
    st.integers(0, 5),
    RATIONALS.filter(bool),
)
# each of the five identities broken alone: den P3, den P0, P4, den Q3,
# Q4, and den P3 again by Q0
@example(F(2), F(3), F(4), False, 0, 3, F(1))
@example(F(2), F(3), F(4), False, 0, 0, F(-1, 2))
@example(F(2), F(3), F(4), False, 0, 4, F(1))
@example(F(2), F(3), F(4), False, 1, 3, F(5))
@example(F(2), F(3), F(4), False, 1, 4, F(1, 3))
@example(F(2), F(3), F(4), False, 1, 0, F(2))
@example(F(6), F(2), F(3), True, 0, 3, F(1))
def test_the_family_identities_refuse_what_the_rebuild_refuses(
    a, b, c, on_bc, row, index, delta
):
    # one coordinate of a spanning point of L_{a,b,c} moved: the
    # integer identities and the rebuild give the same verdict and
    # parameters, whether the line stays in the family or leaves it
    if on_bc:
        a = b * c
    points = [list(pt) for pt in lines.labc_points(a, b, c)]
    points[row][index] += delta
    try:
        line = Line(points)
    except DegenerateLineError:
        assume(False)
    params = _labc_params_or_none(line)
    assert params == _rebuilt_labc_params(line)
    if index not in (1, 2):
        # the (1, 2) echelon is the moved points, which break an identity
        assert params is None


@PROPERTY
@given(RATIONALS, RATIONALS, RATIONALS)
def test_the_family_identities_agree_with_the_rebuild_on_tangent_cone_lines(a, b, c):
    try:
        line = _rho0_chart().line_at(a, b, c)
    except HmsError:
        assume(False)
    assert _labc_params_or_none(line) == _rebuilt_labc_params(line)


@cache
def _rho0_chart():
    return TangentConeChart(rho0_model(), RHO0_SEED)


def test_labc_demo_line_is_rational():
    line = labc_line(3, 243, 243)
    assert line.primitive_rows() == (
        (59046, 0, -1, 59049, 243, -243),
        (0, 19682, -19683, 3, 243, -243),
    )


def test_conic_point_and_chord_parametrization():
    # x^2 + y^2 - 2 z^2, by its doubled Gram matrix
    assert rational_conic_point([[2, 0, 0], [0, 2, 0], [0, 0, -4]]) == [-1, -1, -1]
    # the chord rule on the rho0 seed frame: every chord point lies on
    # both quadrics, and the frame inverts it on random [r : s]
    model = rho0_model()
    chart = TangentConeChart(model, RHO0_SEED)
    frame = chart.frame0
    assert rank([frame.project(chart.w0), chart.c0]) == 1
    # the tangent chord returns the base ruling itself, which has no
    # chord parameter
    tr, ts = frame.tangent_chord(chart.w0)
    chord = frame.chord_map(chart.w0)
    tangent = frame.project(chord_at(chord, tr, ts))
    assert len(rref([tangent, chart.c0])[1]) == 1
    rng = random.Random(3)
    for _ in range(12):
        r0, s0 = F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(1, 9))
        y = chord_at(chord, r0, s0)
        assert evaluate(model.q1.terms, y) == 0 and evaluate(model.q2.terms, y) == 0
        if r0 * ts == s0 * tr:
            with pytest.raises(HmsError):
                frame.chord_parameter(chart.c0, frame.project(y))
            continue
        r1, s1 = frame.chord_parameter(chart.c0, frame.project(y))
        assert r1 * s0 == s1 * r0


def test_chord_map_is_a_positive_multiple_of_the_chord_rule():
    # the binary quadratic map of each frame against the rule written
    # with E made primitive (`exact_oracles.chord_rule`): the map's point
    # is the rule's times g^2, g the content of s U_j2 - r U_j1, on the
    # seed frame and three walked ones, at s = 0 and at the tangent chord
    model = rho0_model()
    chart = TangentConeChart(model, RHO0_SEED)
    cases = [(chart.w0, chart.frame0)]
    for a, b in ((F(2), F(1, 16)), (F(-3, 2), F(5)), (F(7), F(-2, 3))):
        w = chart.direction(a)
        cases.append((w, chart._walk(w, b)[1]))
    for w, frame in cases:
        _, j1, j2 = lines._chord_indices(frame.project(w))
        u1, u2 = frame.U[j1], frame.U[j2]
        chord = frame.chord_map(w)
        for r, s in ((1, 0), (0, 1), (3, 2), (-5, 7), frame.tangent_chord(w)):
            y = chord_at(chord, r, s)
            rule = chord_rule(model.gram, w, u1, u2, r, s)
            content = gcd(*(s * v - r * u for u, v in zip(u1, u2)))
            assert y == [content**2 * x for x in rule]
            assert any(rule)


def demo_config(name, **overrides):
    data = json.loads(resources.files("hmslines").joinpath(f"configs/{name}").read_text())
    return parse_config({**data, **overrides})


def test_chart_restricts_no_conic_per_candidate(monkeypatch):
    # no chart, search or certificate step on integer lines restricts a
    # form generically: `restrict_to_span` is counted in every module
    # that imports it, `mpoly` included, and the generic layer under it,
    # `SparsePoly.substitute`, on the class
    calls = []
    for module in (lines, mpoly, verify):

        def counting(*args, restrict=module.restrict_to_span):
            calls.append(args)
            return restrict(*args)

        monkeypatch.setattr(module, "restrict_to_span", counting)
    def counting_substitute(self, *args, method=SparsePoly.substitute):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(SparsePoly, "substitute", counting_substitute)
    model = rho0_model()
    chart = TangentConeChart(model, RHO0_SEED)
    found = [chart.line_at(F(2), F(1, 16), F(3)), chart.line_at(F(1), F(0), F(2))]
    for line in found:
        chart.params_of(line)
    assert len(find_lines(demo_config("rho0-demo.json"), max_results=2)) == 2
    config = demo_config("char3-demo.json", precision=60)
    cert = certify_line(labc_line(3, 243, 243), build_model(config), config)
    assert cert.data["local_5"]["points"]
    assert calls == []


def test_definite_conic_reports_extension(monkeypatch):
    # x^2 + y^2 + z^2, by its doubled Gram matrix, scanned to height 6
    monkeypatch.setattr(lines, "CONIC_HEIGHT", 6)
    with pytest.raises(HmsError) as info:
        rational_conic_point([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert str(info.value) == "no rational point of height <= 6 on the tangent conic"


def test_char3_display_is_scaled_quartic():
    for l1, l2 in ((1, 1), (3, F(1, 2)), (2, 5)):
        display = char3_quartic_display(l1, l2)
        model = char3_model(l1, l2)
        scaled = model.forms[4] * (27 * model.scales[4])
        assert display == scaled
        assert display.terms[(3, 0, 0, 0, 0, 1)] == F(l1) ** 3


def test_char3_leading_profile_valuations():
    profile = char3_leading_profile(1, 1)
    assert len(profile) == 5
    assert coefficient_valuations(profile, 5, 40, 41) == (41, 40, 11, 41, 40)
    # a nontrivial twist parameter shifts the two top coefficients by
    # exactly the valuation of lambda1^(-3)
    shifted = char3_leading_profile(3, 1)
    assert coefficient_valuations(shifted, 5, 40, 41) == (41, 40, 11, 38, 37)


def test_char3_profile_regime_must_separate():
    profile = char3_leading_profile(1, 1)
    with pytest.raises(HmsError, match="too small to separate them"):
        coefficient_valuations(profile, 0, 0, 0)


def test_parity_admissible_rule():
    assert parity_admissible(4, 7, 0, 1) is True
    assert parity_admissible(3, 7, 0, 1) is False
    assert parity_admissible(0, 0, 0, 0) is True
    rng = random.Random(9)
    for _ in range(30):
        args = [rng.randint(0, 9) for _ in range(4)]
        base = parity_admissible(*args)
        for i in range(4):
            bumped = list(args)
            bumped[i] += 2
            assert parity_admissible(*bumped) == base


def _point_mod_3_to(K, coords, modulus=(0, 1)):
    """A point: six coordinates, each a list of ring coordinates, in one
    ring mod 3^K."""
    ring = UnramifiedRing(3, modulus, K)
    return tuple(ring.elt(c) for c in coords)


def _integer_point_mod_3_to(K, coords):
    return _point_mod_3_to(K, [[c] for c in coords])


def test_cusp_proximity_examples():
    # 3^6 below the cusp line and a plain point at depth 1; scaled by 9,
    # each has the depth of its primitive representative
    deep, plain = (0, 1, 0, 0, 729, 0), (3, 1, 9, 27, 9, 3)
    assert cusp_proximity([_integer_point_mod_3_to(8, deep)]) == (6,)
    assert cusp_proximity([_integer_point_mod_3_to(8, plain)]) == (1,)
    scaled = [_integer_point_mod_3_to(10, [9 * c for c in pt]) for pt in (deep, plain)]
    assert cusp_proximity(scaled) == (6, 1)


def test_cusp_proximity_respects_noncusp_choice():
    # coordinates 1 and 2 span the cusp line: the unit 5 does not count
    point = _integer_point_mod_3_to(6, (9, 1, 5, 27, 81, 243))
    assert cusp_proximity([point]) == (2,)
    # in the ring of t^2 + 1 mod 3^4: 9t and 27 + 81t have valuations 2
    # and 3, and the coordinates 0 mod 3^4 are at least that deep
    point = _point_mod_3_to(4, ([0, 9], [1], [0, 1], [27, 81], [], [0, 81]), (1, 0, 1))
    assert cusp_proximity([point]) == (2,)


def test_cusp_proximity_refuses_unresolved_coordinates():
    # every non-cusp coordinate is 0 mod 3^5: the depth is at least 5,
    # but which it is waits for precision 6
    point = (243, 1, 0, 0, 3**7, 0)
    with pytest.raises(PrecisionError, match="cusp depth is unresolved") as exc:
        cusp_proximity([_integer_point_mod_3_to(5, point)])
    # the hint is the caller's: it knows how many digits its points lost
    assert exc.value.needed is None
    assert cusp_proximity([_integer_point_mod_3_to(6, point)]) == (5,)
    # one undetermined point refuses the whole tuple
    with pytest.raises(PrecisionError, match="cusp depth is unresolved"):
        cusp_proximity(
            [_integer_point_mod_3_to(5, (1, 0, 0, 0, 0, 0)), _integer_point_mod_3_to(5, point)]
        )
    # a point with no coordinate determined at all is a precision
    # problem as well, not a malformed input
    point = _point_mod_3_to(3, ([0, 27], [81], [0], [], [27], [0, 54]), (1, 0, 1))
    with pytest.raises(PrecisionError, match="no coordinate valuation is certified") as exc:
        cusp_proximity([point])
    assert exc.value.needed is None
