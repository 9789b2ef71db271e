"""Reproductions of the worked examples behind the models.

Each check function re-derives one published identity or worked example
from scratch and reports (name, passed, detail) rows; verify_paper runs
all of them.  The CLI exposes the same suite as `hmslines verify-paper`.
The helpers that only these checks run live here, not in the
certifier's modules.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from .errors import DegenerateLineError, HmsError
from .mpoly import SparsePoly, restrict_to_span
from .padics import UnramifiedRing
from .quartics import real_root_count
from .lines import (
    Line,
    in_quadrics,
    labc_line,
    labc_restriction,
    parity_admissible,
    quartic_of_line,
)
from .scalars import valuation_of_rational
from .surface import identity_twist, rho0_twist, char3_twist, twisted_equations

# The real line used in the archimedean construction, in the chart of
# the rho0 twist.
REAL_LINE_ROWS = (
    (1, 0, Fraction(-3, 4), Fraction(3, 4), 0, Fraction(-1, 2)),
    (0, 1, Fraction(-23, 20), Fraction(7, 20), 2, Fraction(3, 10)),
)


def _row(name, passed, detail=""):
    return (name, bool(passed), detail)


def _poly(nvars, terms):
    return SparsePoly(nvars, {tuple(e): Fraction(c) for e, c in terms.items()})


def _sample_points(count, draw):
    rng = random.Random(20260816)
    out = []
    while len(out) < count:
        pt = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)
        ]
        if draw(pt):
            out.append(pt)
    return out


def sigma_profile(pt) -> tuple:
    """sigma_1..sigma_6 of the six s-coordinates of a point, a 6-tuple,
    by the recurrence e_k <- e_k + s * e_(k-1): only + and * of the
    coordinates, which may be rationals or elements of F_25."""
    es = [1, 0, 0, 0, 0, 0, 0]
    for s in pt:
        for j in range(6, 0, -1):
            es[j] = s * es[j - 1] + es[j]
    return tuple(es[1:])


def curve_D(sigma):
    """D = sigma_3^2 - 4 sigma_6 of a sigma profile, zero on the
    degenerate curve V."""
    return sigma[2] * sigma[2] - sigma[5] * 4


def u_ratios(sigma):
    """u1 = D^5 / sigma_5^6 and u2 = D^3 / (sigma_5^3 sigma_3) of a sigma
    profile with sigma_3 and sigma_5 nonzero, as Fractions."""
    s3, s5, D = (Fraction(x) for x in (sigma[2], sigma[4], curve_D(sigma)))
    return D**5 / s5**6, D**3 / (s5**3 * s3)


def modular_form_values(sigma):
    """The ratios (phi2^3 / chi6, phi2^5 / chi10) of a sigma profile with
    sigma_3 and sigma_5 nonzero: chi6 = sigma_3, chi10 = -sigma_5/3 and
    phi2 = -3 D / sigma_5."""
    s3, s5 = Fraction(sigma[2]), Fraction(sigma[4])
    phi2 = -3 * curve_D(sigma) / s5
    return phi2**3 / s3, phi2**5 / (-s5 / 3)


def char3_quartic_display(lambda1, lambda2) -> SparsePoly:
    """The quartic of the cube-root twist model, scaled so that the
    monomial x0^3 x5 has coefficient lambda1^3 (i.e. 27 times the
    composed symmetric function)."""
    model = twisted_equations(char3_twist(lambda1, lambda2))
    return model.forms[4] * (27 * model.scales[4])


def char3_leading_profile(lambda1, lambda2) -> tuple:
    """The five coefficients of the labc-family quartic as polynomials in
    (a, b, c): the i-th multiplies x1^i x2^(4-i) in the restriction of
    the scaled quartic (`char3_quartic_display`) to the line L_{a,b,c}."""
    r = labc_restriction(char3_quartic_display(lambda1, lambda2))
    coeffs = []
    for i in range(5):
        poly = r.terms.get((i, 4 - i), 0)
        if not isinstance(poly, SparsePoly):
            poly = SparsePoly.constant(Fraction(poly), 3)
        coeffs.append(poly)
    return tuple(coeffs)


def coefficient_valuations(coeffs, alpha: int, beta: int, gamma: int):
    """3-adic valuations of the polynomials coeffs in (a, b, c), such as
    `char3_leading_profile`'s, in the monomial regime v(a) = alpha,
    v(b) = beta, v(c) = gamma.

    Each coefficient valuation is certified only when a single
    monomial strictly dominates; a tie raises HmsError."""
    out = []
    for k, poly in enumerate(coeffs):
        if poly.is_zero:
            out.append(None)
            continue
        best = None
        tie = False
        for exp, coeff in poly.terms.items():
            v = (
                valuation_of_rational(coeff, 3)
                + alpha * exp[0]
                + beta * exp[1]
                + gamma * exp[2]
            )
            if best is None or v < best:
                best, tie = v, False
            elif v == best:
                tie = True
        if tie:
            raise HmsError(
                f"coefficient {k}: two monomials share the minimal "
                f"valuation {best}; regime (alpha, beta, gamma) = "
                f"({alpha}, {beta}, {gamma}) is too small to separate them"
            )
        out.append(best)
    return tuple(out)


def _divide_linear(cs, x):
    """(quotient, remainder) of the coefficient list by (t - x): one
    synthetic division, whose remainder is the value at x."""
    acc = cs[-1]
    quotient = [acc]
    for c in reversed(cs[:-1]):
        acc = acc * x + c
        quotient.append(acc)
    value = quotient.pop()
    return quotient[::-1], value


def roots_over_Fq(coeffs, field: UnramifiedRing):
    """All projective roots of the quartic sum coeffs[i] t^i u^(4-i)
    over F_q by exhaustive scan, with multiplicity.

    field is F_q = F_{p^d} as an `UnramifiedRing` at precision 1; the
    five coefficients are its elements or ints.  Returns a list of
    ((t, u), multiplicity) pairs; (t, u) is the canonical
    representative, u = 1 for affine roots and (1, 0) at infinity.
    """
    if field.K != 1:
        raise HmsError("roots_over_Fq needs a finite field: precision 1")
    zero, one = field.zero(), field.one()
    cs = [zero + c for c in coeffs]
    if all(c == 0 for c in cs):
        raise DegenerateLineError("roots of the zero form")
    roots = []
    inf_mult = 0
    while cs and cs[-1] == 0:
        cs.pop()
        inf_mult += 1
    if inf_mult:
        roots.append(((one, zero), inf_mult))
    for digits in product(range(field.p), repeat=field.deg):
        x = field.elt(digits)
        mult = 0
        quotient, value = _divide_linear(cs, x)
        while value == 0:
            mult += 1
            quotient, value = _divide_linear(quotient, x)
        if mult:
            roots.append(((x, one), mult))
    return roots


def check_symbolic_identities():
    """Identities of the twisted equations that hold as polynomials."""
    rows = []

    model = twisted_equations(char3_twist(1, 1))
    sigma1 = _poly(6, {(0, 0, 0, 0, 1, 0): 1, (0, 0, 0, 0, 0, 1): 1})
    rows.append(
        _row(
            "char3 linear form is x4 + x5",
            model.scales[1] == 1 and model.forms[1] == sigma1,
            "sigma_1 after the twist",
        )
    )

    three_sigma2 = _poly(
        6,
        {
            (0, 0, 0, 0, 2, 0): 1,
            (0, 0, 0, 0, 1, 1): 3,
            (0, 0, 0, 0, 0, 2): 1,
            (1, 1, 0, 0, 0, 0): -1,
            (0, 0, 1, 1, 0, 0): -1,
        },
    )
    got = model.forms[2] * (3 * model.scales[2])
    rows.append(
        _row(
            "char3 quadric: 3 sigma_2 = x4^2 + 3 x4 x5 + x5^2 - x0 x1 - x2 x3",
            got == three_sigma2,
            "scale " + str(model.scales[2]),
        )
    )

    contained = all(labc_restriction(f).is_zero for f in (model.q1, model.q2))
    rows.append(
        _row(
            "line family lies in both quadrics for all (a, b, c)",
            contained,
            "symbolic restriction of q1, q2",
        )
    )

    display = char3_quartic_display(1, 1)
    l000 = labc_line(0, 0, 0)
    rows.append(
        _row(
            "quartic display vanishes on the (0, 0, 0) line",
            restrict_to_span(display, l000.ints).is_zero,
            "",
        )
    )

    rho0 = twisted_equations(rho0_twist())
    q1_expected = _poly(
        6,
        {
            (1, 0, 0, 0, 0, 0): 2,
            (0, 0, 1, 0, 0, 0): 2,
            (0, 0, 0, 0, 1, 0): 1,
            (0, 0, 0, 0, 0, 1): 1,
        },
    )
    rows.append(
        _row(
            "archimedean twist has rational equations",
            all(s == 1 for s in rho0.scales.values())
            and rho0.q1 == q1_expected,
            "sigma_1 after the twist is 2 t0 + 2 t2 + t4 + t5",
        )
    )

    samples = _sample_points(
        8, lambda pt: sigma_profile(pt)[4] != 0 and sigma_profile(pt)[2] != 0
    )
    rng = random.Random(1)
    invariant = True
    for pt in samples:
        mu = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        u1, u2 = u_ratios(sigma_profile(pt))
        v1, v2 = u_ratios(sigma_profile([mu * x for x in pt]))
        if (u1, u2) != (v1, v2):
            invariant = False
    rows.append(
        _row(
            "ordinarity ratios are scale invariant",
            invariant,
            f"{len(samples)} sample points",
        )
    )

    linked = True
    for pt in samples:
        profile = sigma_profile(pt)
        u1, u2 = u_ratios(profile)
        over_chi6, over_chi10 = modular_form_values(profile)
        if over_chi6 != -27 * u2 or over_chi10 != 729 * u1:
            linked = False
    rows.append(
        _row(
            "modular-form ratios match the ordinarity ratios",
            linked,
            "phi2^3/chi6 = -27 u2 and phi2^5/chi10 = 729 u1",
        )
    )
    return rows


def check_real_line():
    """The archimedean worked example: a line with four real points."""
    rows = []
    model = twisted_equations(rho0_twist())
    line = Line([list(r) for r in REAL_LINE_ROWS])
    on_surface = in_quadrics(line, model)
    rows.append(_row("real line lies in both quadrics", on_surface, ""))
    if not on_surface:
        return rows
    quartic = quartic_of_line(line, model)
    # the published quartic is on the reduced rows, den^4 times smaller
    coeffs = [Fraction(quartic.content * c, line.den**4) for c in quartic.coeffs]
    expected = [
        Fraction(-3993, 500),
        Fraction(663, 125),
        Fraction(1017, 50),
        Fraction(39, 5),
        Fraction(3, 4),
    ]
    rows.append(
        _row(
            "restricted quartic matches the published coefficients",
            coeffs == expected,
            str([str(c) for c in coeffs]),
        )
    )
    disc = quartic.discriminant()
    count = real_root_count(quartic)
    rows.append(
        _row(
            "quartic has four distinct real roots",
            disc != 0 and count == 4,
            f"real root count {count}",
        )
    )
    return rows


def check_residue5_line():
    """The char-5 worked example: a line over F_25 with 4 split points."""
    rows = []
    # F_25 = F_5[w]/(w^2 + 3): w is a square root of -3
    F = UnramifiedRing(5, (3, 0, 1), 1)
    w = F.gen()
    one = F.one()
    P = [one - w, one + w, -one, -one, one, -one]
    Q = [F.zero(), F.zero(), one + w, one - w, F.zero(), -one - one]
    model = twisted_equations(identity_twist())

    on_surface = True
    for f in (model.q1, model.q2):
        r = restrict_to_span(f, (P, Q))
        if any(not (v == F.zero()) for v in r.terms.values()):
            on_surface = False
    rows.append(_row("residue line lies in both quadrics", on_surface, ""))

    restriction = restrict_to_span(model.q4, (P, Q))
    coeffs = [restriction.terms.get((i, 4 - i), 0) for i in range(5)]
    # -3 t (8 u^3 - t^3) = 3 t^4 - 24 t u^3 = 3 t^4 + t u^3 over F_5
    expected = [F.zero(), one, F.zero(), F.zero(), F.elt([3])]
    rows.append(
        _row(
            "restriction is -3 t (8 u^3 - t^3)",
            all(got == want for got, want in zip(coeffs, expected)),
            "checked coefficientwise over F_25",
        )
    )

    roots = roots_over_Fq(coeffs, F)
    simple = all(mult == 1 for _, mult in roots)
    rows.append(
        _row(
            "four distinct roots over F_25",
            len(roots) == 4 and simple,
            f"{len(roots)} roots",
        )
    )

    # independent scan of all 26 points of P^1(F_25)
    chart = [(F.elt([c0, c1]), one) for c0 in range(5) for c1 in range(5)]
    chart.append((one, F.zero()))
    zeros = set()
    for t, u in chart:
        acc = F.zero()
        for i, coeff in enumerate(coeffs):
            acc = acc + coeff * t**i * u ** (4 - i)
        if acc == F.zero():
            zeros.add((t, u))
    root_set = {pt for pt, _ in roots}
    rows.append(
        _row(
            "root finder agrees with the 26-point scan",
            len(zeros) == 4 and zeros == root_set,
            f"scan found {len(zeros)} zeros",
        )
    )

    four = F.elt([4])
    off_curve = True
    for (t, u), _ in roots:
        pt = [t * pi + u * qi for pi, qi in zip(P, Q)]
        if not (curve_D(sigma_profile(pt)) == four):
            off_curve = False
    rows.append(
        _row(
            "all four points avoid the degenerate curve",
            off_curve,
            "sigma_3^2 - 4 sigma_6 = 4 at each point",
        )
    )
    return rows


def check_residue3_profile():
    """Leading valuations and the parity rule for the (a, b, c) family."""
    rows = []
    vals = coefficient_valuations(char3_leading_profile(1, 1), 5, 40, 41)
    rows.append(
        _row(
            "coefficient valuations at (5, 40, 41) are (41, 40, 11, 41, 40)",
            tuple(vals) == (41, 40, 11, 41, 40),
            str(tuple(vals)),
        )
    )

    table_ok = True
    for ob in range(2):
        for oc in range(2):
            for e1 in range(2):
                for e2 in range(2):
                    want = (ob - e1) % 2 == 0 and (oc - e2) % 2 == 0
                    got = parity_admissible(ob, oc, e1, e2)
                    if got != want:
                        table_ok = False
    rows.append(
        _row(
            "parity rule matches its truth table (16 cases)",
            table_ok,
            "(ord b - ord lambda1) and (ord c - ord lambda2) both even",
        )
    )
    return rows


def verify_paper():
    """Run every published-example check; returns (passed, rows)."""
    rows = []
    rows.extend(check_symbolic_identities())
    rows.extend(check_real_line())
    rows.extend(check_residue5_line())
    rows.extend(check_residue3_profile())
    return all(ok for _, ok, _ in rows), rows
