"""Every check of `verify_paper` can fail: breaking the premise of one
row (its model, point, ratio function or truth table) fails that row
and the whole report."""
import pytest

from hmslines import verify
from hmslines.mpoly import SparsePoly

X0 = (1, 0, 0, 0, 0, 0)
LABC_LINE = verify.labc_line


def with_term(k, exp, c=1):
    """`twisted_equations` with c x^exp added to the form of degree k."""
    build = verify.twisted_equations

    def perturbed(twist):
        model = build(twist)
        model.forms[k] = model.forms[k] + SparsePoly(6, {exp: c})
        return model

    return "twisted_equations", perturbed


def shifted(name, shift):
    """verify's function `name` with `shift` applied to what it returns."""
    real = getattr(verify, name)
    return name, lambda *args: shift(real(*args), *args)


# row name -> (the name in verify to replace, its replacement), in row order
BREAKS = {
    "char3 linear form is x4 + x5": lambda: with_term(1, X0),
    "char3 quadric: 3 sigma_2 = x4^2 + 3 x4 x5 + x5^2 - x0 x1 - x2 x3":
        lambda: with_term(2, (2, 0, 0, 0, 0, 0)),
    "line family lies in both quadrics for all (a, b, c)":
        lambda: with_term(2, (2, 0, 0, 0, 0, 0)),
    "quartic display vanishes on the (0, 0, 0) line":
        lambda: ("labc_line", lambda a, b, c: LABC_LINE(a + 1, b + 1, c + 1)),
    "archimedean twist has rational equations":
        lambda: ("rho0_twist", verify.identity_twist),
    # u1 + sigma_1 scales like sigma_1, not like a ratio
    "ordinarity ratios are scale invariant":
        lambda: shifted("u_ratios", lambda u, sigma: (u[0] + sigma[0], u[1])),
    "modular-form ratios match the ordinarity ratios":
        lambda: shifted("modular_form_values", lambda m, sigma: (m[0] + 1, m[1])),
    "real line lies in both quadrics":
        lambda: ("REAL_LINE_ROWS", (X0, verify.REAL_LINE_ROWS[1])),
    "restricted quartic matches the published coefficients":
        lambda: with_term(4, (4, 0, 0, 0, 0, 0)),
    "quartic has four distinct real roots": lambda: with_term(4, (4, 0, 0, 0, 0, 0), 100),
    "residue line lies in both quadrics": lambda: with_term(1, X0),
    "restriction is -3 t (8 u^3 - t^3)": lambda: with_term(4, (4, 0, 0, 0, 0, 0)),
    "four distinct roots over F_25": lambda: with_term(4, (0, 0, 0, 0, 0, 4)),
    "root finder agrees with the 26-point scan":
        lambda: shifted("roots_over_Fq", lambda roots, *_: roots[:-1]),
    "all four points avoid the degenerate curve":
        lambda: shifted("curve_D", lambda D, sigma: D + 1),
    "coefficient valuations at (5, 40, 41) are (41, 40, 11, 41, 40)":
        lambda: with_term(4, (4, 0, 0, 0, 0, 0)),
    "parity rule matches its truth table (16 cases)":
        lambda: ("parity_admissible", lambda ob, oc, e1, e2: (ob - e1) % 2 == 0),
}


def test_every_row_has_a_break():
    assert [name for name, _, _ in verify.verify_paper()[1]] == list(BREAKS)


@pytest.mark.parametrize("row", list(BREAKS), ids=range(len(BREAKS)))
def test_a_broken_premise_fails_its_row(row, monkeypatch):
    monkeypatch.setattr(verify, *BREAKS[row]())
    passed, rows = verify.verify_paper()
    assert (row, False) in [(name, ok) for name, ok, _ in rows]
    assert passed is False
